"""Generation layer: context concatenation, prompt templates, readers,
zero-shot answering, generation backends, and the iterative
retrieve-generate loop.

Backends turn an ordered sequence of prompt strings into an equally long,
order-aligned sequence of answer strings. One generate call handles a whole
frame (for IRCoT, a whole round), so backends can batch and tests can count
calls. The stub backends are pure functions for hermetic tests; the HTTP
backend speaks an OpenAI-compatible chat-completions protocol.
"""

from __future__ import annotations

import os
import re
import string
import time
from bisect import bisect_left
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import requests
from requests.adapters import HTTPAdapter

from .errors import (
    BackendError,
    MissingField,
    TemplateError,
    TypeMismatch,
    check_finite,
    check_positive,
    check_str,
    str_tuple,
)
from .frame import Frame, SemType, by_query
from .transformer import Signature, Transformer, run, type_check

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_]+)\}")
# the longest wait, in seconds, that a Retry-After header can set
MAX_RETRY_AFTER = 60.0


def _substitute(template: str, values: dict[str, str]) -> str:
    # single pass, so placeholder-looking text inside substituted values is
    # never expanded again; _check_placeholders vetted every name
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


def _check_placeholders(template: str, allowed: set[str], where: str) -> None:
    for m in _PLACEHOLDER_RE.finditer(template):
        if m.group(1) not in allowed:
            raise TemplateError(
                f"unknown placeholder {{{m.group(1)}}} in {where}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )


@dataclass(frozen=True)
class PromptTemplate:
    """Pure-text prompt recipe.

    user_template may use {query} and {context}; how documents become the
    context is up to the Concatenator. Placeholders are {name} sequences of
    letters and underscores; anything else in braces is left verbatim.
    Unknown placeholders fail here, at construction.
    """

    user_template: str
    system: str = ""

    def __post_init__(self):
        for name in ("user_template", "system"):
            check_str(getattr(self, name), name)
        _check_placeholders(self.user_template, {"query", "context"}, "user_template")

    def render_user(self, query: str, context: str = "") -> str:
        return _substitute(self.user_template, {"query": query, "context": context})


DEFAULT_RAG_TEMPLATE = PromptTemplate(
    system="You are a question answering assistant. Answer using the context.",
    user_template="Context:\n{context}\n\nQuestion: {query}\nAnswer:",
)

DEFAULT_ZERO_SHOT_TEMPLATE = PromptTemplate(
    system="You are a question answering assistant.",
    user_template="Question: {query}\nAnswer:",
)

DEFAULT_ITERATIVE_TEMPLATE = PromptTemplate(
    system=(
        "Answer step by step. Write one sentence per step and finish with"
        ' "so the answer is" followed by the answer.'
    ),
    user_template="Context:\n{context}\n\nQuestion: {query}\nAnswer:",
)


# -- backends ----------------------------------------------------------------


class Backend:
    """Prompt-in, answer-out generation service.

    generate must return exactly one str answer per prompt, order-aligned,
    and must tolerate concurrent calls from independent pipeline runs.
    `max_input_chars`, a positive int, is the prompt budget.

    `descriptor` names the backend for display. A dataclass backend's
    identity is its compared fields, so every setting that may change an
    answer is a field; settings that never do (HttpBackend's timeout,
    retries, session, sleeper and concurrency) are declared
    field(compare=False). A backend that is not a dataclass equals only
    itself. Stages over equal backends compare equal and may be shared
    between the systems of one experiment.
    """

    descriptor: str = "backend"
    max_input_chars: int = 1_000_000

    def generate(self, prompts: Sequence[str], system: str = "") -> list[str]:
        raise NotImplementedError


@dataclass(unsafe_hash=True)
class StubBackend(Backend):
    """Deterministic offline backend for tests and dry runs.

    Modes:
      echo_query: answer with the text of the last "Question:" line.
      extractive_first_sentence: answer with the first sentence after the
        first "Context:" marker.
      scripted: first (substring, answer) rule whose substring occurs in the
        prompt wins; default_answer otherwise.

    `max_input_chars` is the prompt budget that the stages fit their
    prompts to, as for any backend; it is a compared field, so stubs with
    different budgets are different stages.
    """

    mode: str = "echo_query"
    script: Sequence[tuple[str, str]] = ()
    default_answer: str = ""
    max_input_chars: int = 1_000_000

    MODES = ("echo_query", "extractive_first_sentence", "scripted")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(f"unknown stub mode {self.mode!r}; expected one of {self.MODES}")
        check_positive(self.max_input_chars, "max_input_chars")
        self.script = tuple(map(tuple, self.script))
        self.descriptor = f"stub:{self.mode}"
        self.calls = 0

    def generate(self, prompts: Sequence[str], system: str = "") -> list[str]:
        self.calls += 1
        return [self._answer(p) for p in prompts]

    def _answer(self, prompt: str) -> str:
        if self.mode == "echo_query":
            question = None
            for line in prompt.splitlines():
                if line.startswith("Question:"):
                    question = line[len("Question:"):].strip()
            return question if question is not None else prompt
        if self.mode == "extractive_first_sentence":
            chunk = prompt.split("Context:", 1)
            text = chunk[1] if len(chunk) == 2 else prompt
            for sentence in re.split(r"[.!?\n]", text):
                if sentence.strip():
                    return sentence.strip()
            return ""
        for substring, answer in self.script:
            if substring in prompt:
                return answer
        return self.default_answer


@dataclass(unsafe_hash=True)
class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Sends POST {base_url}/chat/completions with a system and a user message
    per prompt; temperature defaults to 0 for reproducibility. The API key
    is read from the RAGKIT_API_KEY environment variable at call time and
    sent as a bearer token when present.

    One generate call sends its prompts in parallel, at most `concurrency`
    at a time, and returns the answers in prompt order. The sending threads
    belong to the backend and send every prompt, a call's only one too:
    they start on first use and wait, idle, between calls, because starting
    a thread can wait a whole scheduler slice on a busy host, which would
    make each call's latency follow the host's load.
    Calls from several threads share the one bound. All requests go
    through the one `session`, so a caller-supplied session is used from
    several threads at once; a session the backend makes itself keeps up to
    max(10, concurrency) connections per host. When a prompt fails for good,
    prompts not yet sent are dropped, the ones in flight are awaited, and
    the BackendError of the earliest failed prompt, in prompt order, is
    raised with that prompt's position as its `prompt`.

    429 and 5xx responses, connection errors and timeouts are retried up to
    max_retries times with exponential backoff (1s, 2s, 4s by default);
    other error statuses and exceptions fail immediately. A retried response
    whose Retry-After header is delta-seconds (RFC 9110 10.2.3) waits that
    long instead, at most MAX_RETRY_AFTER; an HTTP-date keeps the backoff.
    """

    model: str
    base_url: str | None = None
    temperature: float = 0.0
    timeout: float = field(default=60.0, compare=False)
    max_retries: int = field(default=3, compare=False)
    retry_base_delay: float = field(default=1.0, compare=False)
    max_input_chars: int = 24_000
    session: object = field(default=None, compare=False)
    sleeper: Callable[[float], None] = field(default=time.sleep, compare=False)
    concurrency: int = field(default=8, compare=False)

    API_KEY_ENV = "RAGKIT_API_KEY"

    def __post_init__(self) -> None:
        check_positive(self.concurrency, "concurrency")
        check_positive(self.max_input_chars, "max_input_chars")
        check_finite(self.temperature, "temperature")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        check_finite(self.timeout, "timeout")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        check_finite(self.retry_base_delay, "retry_base_delay")
        if self.retry_base_delay < 0:
            raise ValueError(f"retry_base_delay must be >= 0, got {self.retry_base_delay}")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, got {self.max_retries!r}")
        self.base_url = (
            self.base_url
            or os.environ.get("RAGKIT_BASE_URL")
            or "https://api.openai.com/v1"
        ).rstrip("/")
        if self.session is None:
            self.session = requests.Session()
            for prefix in ("http://", "https://"):
                self.session.mount(
                    prefix, HTTPAdapter(pool_maxsize=max(10, self.concurrency)))
        self.descriptor = f"http:{self.model}"
        self._pool = ThreadPoolExecutor(self.concurrency, thread_name_prefix="ragkit-http")

    def generate(self, prompts: Sequence[str], system: str = "") -> list[str]:
        futures = [self._pool.submit(self._one, p, system) for p in prompts]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for f in futures:
                f.cancel()  # drops the prompts not yet sent
            wait(futures)  # and lets the ones in flight finish
        # prompts start in order, so every dropped one comes after the
        # first failure and result() raises that failure first
        answers = []
        for i, f in enumerate(futures):
            try:
                answers.append(f.result())
            except BackendError as exc:
                exc.prompt = i  # so that _generate can name the prompt's qid
                raise
        return answers

    def _one(self, prompt: str, system: str) -> str:
        url = f"{self.base_url}/chat/completions"
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": prompt},
            ],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        attempt = 0
        while True:
            delay = self.retry_base_delay * (2 ** attempt)
            try:
                resp = self.session.post(
                    url, json=body, headers=headers, timeout=self.timeout
                )
            except Exception as exc:
                transient = isinstance(exc, (requests.ConnectionError, requests.Timeout))
                if not transient or attempt >= self.max_retries:
                    raise BackendError(f"request to {url} failed: {exc}") from exc
            else:
                if resp.status_code == 200:
                    return self._extract(resp)
                retryable = resp.status_code == 429 or resp.status_code >= 500
                if not retryable or attempt >= self.max_retries:
                    raise BackendError(
                        f"backend returned HTTP {resp.status_code}: {resp.text[:200]}",
                        status=resp.status_code,
                    )
                # delta-seconds only: an HTTP-date or a malformed value keeps
                # the backoff
                after = resp.headers.get("Retry-After", "").strip()
                if after.isascii() and after.isdigit():
                    delay = min(int(after), MAX_RETRY_AFTER)
            self.sleeper(delay)
            attempt += 1

    def _extract(self, resp) -> str:
        try:
            content = resp.json()["choices"][0]["message"]["content"]
            check_str(content, "content")
            return content
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc


# -- context building ---------------------------------------------------------


@dataclass(unsafe_hash=True, repr=False)
class Concatenator(Transformer):
    """R -> Qc: per query, renders the top documents into one context string.

    Rows are taken in rank order, up to k_docs (all when None). Each row is
    rendered as an item, cut to per_doc_char_budget, joined by the
    separator, and the join is cut to total_char_budget. An item is the
    values of fields, one per line, whatever their names; an item_template
    replaces that and may use {ordinal} (1-based), {title}, {text} and each
    name in fields that is placeholder syntax (letters and underscores).
    Input rows must carry the query column and every name in fields (attach
    them upstream with include_fields or attach_text); a title or text
    outside fields renders empty.
    """

    k_docs: int | None = None
    fields: Sequence[str] = ("text",)
    per_doc_char_budget: int = 1500
    total_char_budget: int = 6000
    item_template: str | None = None
    item_separator: str = "\n\n"

    signature = Signature(SemType.R, SemType.QC)
    name = "concat"

    def __post_init__(self) -> None:
        if self.k_docs is not None:
            check_positive(self.k_docs, "k_docs")
        check_positive(self.per_doc_char_budget, "per_doc_char_budget")
        check_positive(self.total_char_budget, "total_char_budget")
        check_str(self.item_separator, "item_separator")
        self.fields = str_tuple(self.fields, "fields")
        if self.item_template is not None:
            check_str(self.item_template, "item_template")
            _check_placeholders(
                self.item_template, {"title", "text", "ordinal", *self.fields},
                "item_template",
            )

    def apply(self, frame: Frame) -> Frame:
        out = []
        for qid, rows in by_query(frame):
            if "query" not in rows[0]:
                raise MissingField("query", f"result rows for qid {qid!r}")
            out.append(
                {"qid": qid, "query": rows[0]["query"],
                 "qcontext": self.render(rows[: self.k_docs])}
            )
        return Frame(SemType.QC, out)

    def render(self, rows: Sequence[dict]) -> str:
        """The context string for result rows, taken in the given order."""
        items = []
        for ordinal, row in enumerate(rows, start=1):
            for f in self.fields:
                if f not in row:
                    raise MissingField(f, f"result row {row['docno']!r}")
            if self.item_template is None:
                item = "\n".join(str(row[f]) for f in self.fields)
            else:
                item = _substitute(self.item_template, {
                    "title": "", "text": "", "ordinal": str(ordinal),
                    **{f: str(row[f]) for f in self.fields}})
            items.append(item[: self.per_doc_char_budget])
        return self.item_separator.join(items)[: self.total_char_budget]


concatenate_context = Concatenator


@dataclass(unsafe_hash=True, repr=False)
class PromptRenderer(Transformer):
    """Qc -> Qc: adds (or overwrites) a `prompt` column; query and qcontext
    pass through untouched. The column is for inspection and for custom
    stages: reader and zero_shot build each prompt from their own template
    and never read it."""

    template: PromptTemplate

    signature = Signature(SemType.QC, SemType.QC)
    name = "prompt"

    def apply(self, frame: Frame) -> Frame:
        rows = []
        for row in frame.rows:
            merged = dict(row)
            merged["prompt"] = self.template.render_user(
                row["query"], row["qcontext"]
            )
            rows.append(merged)
        return Frame(SemType.QC, rows)


render_prompt = PromptRenderer


def _fit_prompt(template: PromptTemplate, query: str, qcontext: str,
                limit: int, suffix: str = "") -> str:
    prompt = template.render_user(query, qcontext) + suffix
    if len(prompt) <= limit:
        return prompt
    # cut the context tail, never the rest; substitution is single-pass and
    # literal, so each {context} adds exactly len(qcontext) to the prompt
    uses = template.user_template.count("{context}")
    overhead = len(prompt) - uses * len(qcontext)
    if overhead > limit:
        raise TemplateError(
            f"prompt without context is {overhead} chars, "
            f"over the backend's limit of {limit}"
        )
    allowed = (limit - overhead) // uses
    return template.render_user(query, qcontext[:allowed]) + suffix


def _generate(backend: Backend, template: PromptTemplate,
              parts: Sequence[tuple[str, str, str, str]]) -> list[str]:
    """One answer per (qid, query, context, suffix), in order: each prompt
    is fitted to the backend's max_input_chars, all go out in one generate
    call, and a backend that does not answer each prompt once, with a str,
    is an error. A BackendError names the qid of its prompt when it is
    known: the only prompt, or the failed one the backend recorded."""
    prompts = [
        _fit_prompt(template, query, context, backend.max_input_chars, suffix)
        for _, query, context, suffix in parts
    ]
    if not prompts:
        return []
    try:
        answers = list(backend.generate(prompts, system=template.system))
    except BackendError as exc:
        at = 0 if len(prompts) == 1 else exc.prompt
        if exc.qid is None and at is not None:
            exc._name_qid(parts[at][0])
        raise
    if len(answers) != len(prompts):
        raise BackendError(
            f"backend returned {len(answers)} answers for {len(prompts)} prompts"
        )
    for (qid, *_), answer in zip(parts, answers):
        if not isinstance(answer, str):
            raise BackendError(f"backend returned {answer!r}, not a str, as an answer", qid)
    return answers


def _budget(backend: Backend) -> int:
    """The backend's max_input_chars, checked when a stage over it is
    built: InvalidK unless it is a positive int."""
    check_positive(backend.max_input_chars, "max_input_chars")
    return backend.max_input_chars


@dataclass(unsafe_hash=True, repr=False)
class _Answerer(Transformer):
    # Shared by Reader and ZeroShot: rows in qid order, one prompt each
    # (a zero-shot template has no {context}, so qcontext is never used)
    backend: Backend
    template: PromptTemplate | None = None

    def __post_init__(self) -> None:
        _budget(self.backend)
        self.template = self.template or self.default_template

    def apply(self, frame: Frame) -> Frame:
        rows = sorted(frame.rows, key=lambda r: r["qid"])
        answers = _generate(
            self.backend,
            self.template,
            [(r["qid"], r["query"], r.get("qcontext", ""), "") for r in rows],
        )
        return Frame(
            SemType.A,
            [{"qid": r["qid"], "qanswer": a} for r, a in zip(rows, answers)],
        )


class Reader(_Answerer):
    """Qc -> A: renders one prompt per row and asks the backend for all of
    them in one generate call.

    Rows are processed in qid order; answers come back aligned, one per row,
    never dropped. A prompt longer than the backend's max_input_chars has
    its context cut from the tail until it fits; if the question and
    instructions alone do not fit, the stage fails with TemplateError.
    """

    signature = Signature(SemType.QC, SemType.A)
    name = "reader"
    default_template = DEFAULT_RAG_TEMPLATE


reader = Reader


class ZeroShot(_Answerer):
    """Q -> A: direct answer generation with no retrieved context."""

    signature = Signature(SemType.Q, SemType.A)
    name = "zero_shot"
    default_template = DEFAULT_ZERO_SHOT_TEMPLATE

    def __post_init__(self) -> None:
        super().__post_init__()
        if "{context}" in self.template.user_template:
            raise TemplateError(
                "zero-shot template must not use {context}; there is none"
            )


zero_shot = ZeroShot


# -- iterative retrieval ------------------------------------------------------

DEFAULT_EXIT_PHRASE = "so the answer is"


@dataclass(unsafe_hash=True, repr=False)
class IterativeRetriever(Transformer):
    """Q -> A: interleaved retrieval and generation, in rounds.

    Each round serves the questions still going, in qid order, with one
    retrieval run over their current queries and one generate call. Each
    question folds its new top docs_per_iteration documents, in rank order,
    into its accumulated, docno-deduplicated set (first-seen order), and its
    prompt holds a context built from that set as a Concatenator over
    `fields` would, the original question, and the chain of its previously
    generated sentences. A question leaves as soon as its step contains
    exit_phrase in any case (or after max_iterations); its later retrievals
    use the original question plus its latest sentence. The prompt is fitted
    to the backend's max_input_chars by cutting the context tail; if the
    question and the chain alone do not fit, the stage fails with
    TemplateError. The answer is the text after the first exit_phrase in the
    chain when present, the whole chain otherwise; an `iterations` column
    reports the chain's length.
    """

    retriever: Transformer
    backend: Backend
    template: PromptTemplate | None = None
    exit_phrase: str = DEFAULT_EXIT_PHRASE
    max_iterations: int = 4
    docs_per_iteration: int = 4
    fields: Sequence[str] = ("text",)

    signature = Signature(SemType.Q, SemType.A)
    name = "ircot"
    default_template = DEFAULT_ITERATIVE_TEMPLATE

    def __post_init__(self) -> None:
        sig = type_check(self.retriever)
        if sig.input is not SemType.Q or sig.output is not SemType.R:
            raise TypeMismatch(Signature(SemType.Q, SemType.R), sig, "ircot.retriever")
        check_positive(self.max_iterations, "max_iterations")
        check_positive(self.docs_per_iteration, "docs_per_iteration")
        self.template = self.template or self.default_template
        check_str(self.exit_phrase, "exit_phrase")
        if not self.exit_phrase.strip():
            raise ValueError(f"exit_phrase must not be blank, got {self.exit_phrase!r}")
        self.exit_phrase = self.exit_phrase.lower()
        self.fields = str_tuple(self.fields, "fields")
        self._retrieve = self.retriever % self.docs_per_iteration
        # budgets at the backend's limit never cut what the prompt fitting
        # would keep, so the context is cut only once, to fit the prompt
        limit = _budget(self.backend)
        self.concat = Concatenator(fields=self.fields, per_doc_char_budget=limit,
                                   total_char_budget=limit)

    def apply(self, frame: Frame) -> Frame:
        questions = {r["qid"]: r["query"] for r in sorted(frame.rows, key=lambda r: r["qid"])}
        queries = dict(questions)  # the questions still going, in qid order
        docs: dict[str, dict[str, dict]] = {qid: {} for qid in questions}
        chains: dict[str, list[str]] = {qid: [] for qid in questions}
        while queries:
            found = run(self._retrieve, Frame(
                SemType.Q, [{"qid": qid, "query": q} for qid, q in queries.items()]))
            for qid, rows in by_query(found):
                for r in rows:
                    docs[qid].setdefault(r["docno"], r)
            steps = _generate(self.backend, self.template, [
                (qid, questions[qid], self.concat.render(list(docs[qid].values())),
                 "\n" + " ".join(chains[qid]) if chains[qid] else "")
                for qid in queries
            ])
            for qid, step in zip(list(queries), steps):
                chains[qid].append(step)
                if self.exit_phrase in step.lower() or len(chains[qid]) == self.max_iterations:
                    del queries[qid]
                else:
                    queries[qid] = questions[qid] + " " + step
        return Frame(SemType.A, [
            {"qid": qid, "qanswer": self._answer(" ".join(chain)), "iterations": len(chain)}
            for qid, chain in chains.items()
        ])

    def _answer(self, chain: str) -> str:
        pos = chain.lower().find(self.exit_phrase)
        if pos < 0:
            return chain
        # chain.lower() runs ahead of chain wherever a character lowercases
        # to several ("\u0130" to "i\u0307"), so map the phrase's end back
        starts = list(accumulate((len(c.lower()) for c in chain), initial=0))
        tail = chain[bisect_left(starts, pos + len(self.exit_phrase)):]
        return tail.strip().rstrip(string.punctuation + " \t\r\n").strip()


ircot = IterativeRetriever
