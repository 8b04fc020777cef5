"""Generation layer: context concatenation, prompt templates, readers,
zero-shot answering, generation backends, and the iterative
retrieve-generate loop.

Backends turn an ordered sequence of prompt strings into an equally long,
order-aligned sequence of answer strings. One generate call handles a whole
frame, so backends can batch and tests can count calls. The stub backends
are pure functions for hermetic tests; the HTTP backend speaks an
OpenAI-compatible chat-completions protocol.
"""

from __future__ import annotations

import os
import re
import string
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BackendError,
    MissingField,
    TemplateError,
    TypeMismatch,
    check_positive,
)
from .frame import Frame, SemType, rank_ordered
from .transformer import Signature, Transformer, run, type_check

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_]+)\}")


def _substitute(template: str, values: dict[str, str]) -> str:
    # single pass, so placeholder-looking text inside substituted values is
    # never expanded again
    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name not in values:
            raise TemplateError(f"unknown placeholder {{{name}}}")
        return values[name]

    return _PLACEHOLDER_RE.sub(repl, template)


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

    generate must return exactly one answer per prompt, order-aligned, and
    must tolerate concurrent calls from independent pipeline runs.

    `descriptor` names the backend for display. Its identity, _key(), is the
    descriptor plus max_input_chars, and a subclass adds every other setting
    that changes its answers (StubBackend its script, HttpBackend base_url
    and temperature). Stages over backends with equal keys compare equal
    and may be shared between the systems of one experiment.
    """

    descriptor: str = "backend"
    max_input_chars: int = 1_000_000

    def _key(self) -> tuple:
        return (self.descriptor, self.max_input_chars)

    def generate(self, prompts: Sequence[str], system: str = "") -> list[str]:
        raise NotImplementedError


class StubBackend(Backend):
    """Deterministic offline backend for tests and dry runs.

    Modes:
      echo_query: answer with the text of the last "Question:" line.
      extractive_first_sentence: answer with the first sentence after the
        first "Context:" marker.
      scripted: first (substring, answer) rule whose substring occurs in the
        prompt wins; default_answer otherwise.
    """

    MODES = ("echo_query", "extractive_first_sentence", "scripted")

    def __init__(
        self,
        mode: str = "echo_query",
        script: Sequence[tuple[str, str]] = (),
        default_answer: str = "",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown stub mode {mode!r}; expected one of {self.MODES}")
        self.mode = mode
        self.script = tuple(map(tuple, script))
        self.default_answer = default_answer
        self.descriptor = f"stub:{mode}"
        self.calls = 0

    def _key(self) -> tuple:
        return super()._key() + (self.script, self.default_answer)

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


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Sends POST {base_url}/chat/completions with a system and a user message
    per prompt; temperature defaults to 0 for reproducibility. The API key
    is read from the RAGKIT_API_KEY environment variable at call time and
    sent as a bearer token when present. 429 and 5xx responses are retried
    up to max_retries times with exponential backoff (1s, 2s, 4s by
    default); other error statuses fail immediately.
    """

    API_KEY_ENV = "RAGKIT_API_KEY"

    def __init__(
        self,
        model: str,
        base_url: str | None = None,
        temperature: float = 0.0,
        timeout: float = 60.0,
        max_retries: int = 3,
        retry_base_delay: float = 1.0,
        max_input_chars: int = 24_000,
        session=None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.model = model
        self.base_url = (
            base_url
            or os.environ.get("RAGKIT_BASE_URL")
            or "https://api.openai.com/v1"
        ).rstrip("/")
        self.temperature = temperature
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_base_delay = retry_base_delay
        self.max_input_chars = max_input_chars
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._sleep = sleeper
        self.descriptor = f"http:{self.model}"

    def _key(self) -> tuple:
        return super()._key() + (self.base_url, self.temperature)

    def generate(self, prompts: Sequence[str], system: str = "") -> list[str]:
        return [self._one(p, system) for p in prompts]

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
            try:
                resp = self._session.post(
                    url, json=body, headers=headers, timeout=self.timeout
                )
            except Exception as exc:
                raise BackendError(f"request to {url} failed: {exc}") from exc
            if resp.status_code == 200:
                return self._extract(resp)
            retryable = resp.status_code == 429 or resp.status_code >= 500
            if retryable and attempt < self.max_retries:
                self._sleep(self.retry_base_delay * (2 ** attempt))
                attempt += 1
                continue
            raise BackendError(
                f"backend returned HTTP {resp.status_code}: {resp.text[:200]}",
                status=resp.status_code,
            )

    def _extract(self, resp) -> str:
        try:
            data = resp.json()
            return data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc


# -- context building ---------------------------------------------------------


@dataclass(eq=False, repr=False)
class Concatenator(Transformer):
    """R -> Qc: per query, renders the top documents into one context string.

    Rows are taken in rank order, up to k_docs (all when None). Each row is
    rendered through the item template, cut to per_doc_char_budget, joined
    by the separator, and the join is cut to total_char_budget. The item
    template may use {ordinal} (1-based), {title}, {text} and each name in
    fields; it defaults to the fields, one per line. Input rows must carry
    the query column and every name in fields (attach them upstream with
    include_fields or attach_text); a title or text outside fields renders
    empty.
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
        self.fields = tuple(self.fields)
        if self.item_template is None:
            self.item_template = "\n".join("{%s}" % f for f in self.fields)
        _check_placeholders(
            self.item_template, {"title", "text", "ordinal", *self.fields},
            "item_template",
        )

    def apply(self, frame: Frame) -> Frame:
        groups: dict[str, list[dict]] = {}
        for row in frame.rows:
            groups.setdefault(row["qid"], []).append(row)
        out = []
        for qid in sorted(groups):
            rows = rank_ordered(groups[qid])
            if self.k_docs is not None:
                rows = rows[: self.k_docs]
            if "query" not in groups[qid][0]:
                raise MissingField("query", f"result rows for qid {qid!r}")
            out.append(
                {"qid": qid, "query": groups[qid][0]["query"], "qcontext": self.render(rows)}
            )
        return Frame(SemType.QC, out)

    def render(self, rows: Sequence[dict]) -> str:
        """The context string for result rows, taken in the given order."""
        items = []
        for ordinal, row in enumerate(rows, start=1):
            values = {"title": "", "text": "", "ordinal": str(ordinal)}
            for f in self.fields:
                if f not in row:
                    raise MissingField(f, f"result row {row['docno']!r}")
                values[f] = str(row[f])
            item = _substitute(self.item_template, values)
            items.append(item[: self.per_doc_char_budget])
        return self.item_separator.join(items)[: self.total_char_budget]


concatenate_context = Concatenator


@dataclass(eq=False, repr=False)
class PromptRenderer(Transformer):
    """Qc -> Qc: adds (or overwrites) a `prompt` column; query and qcontext
    pass through untouched."""

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
    # cut the context tail first; the question, instructions and suffix
    # survive whole or the prompt is refused
    overhead = len(template.render_user(query, "")) + len(suffix)
    if overhead > limit:
        raise TemplateError(
            f"prompt without context is {overhead} chars, "
            f"over the backend's limit of {limit}"
        )
    allowed = (limit - overhead) // template.user_template.count("{context}")
    return template.render_user(query, qcontext[:allowed]) + suffix


def _generate(backend: Backend, template: PromptTemplate,
              parts: Sequence[tuple[str, str, str]]) -> list[str]:
    """One answer per (query, context, suffix), in order: each prompt is
    fitted to the backend's max_input_chars, all go out in one generate
    call, and a backend that does not answer each prompt once is an error."""
    prompts = [
        _fit_prompt(template, query, context, backend.max_input_chars, suffix)
        for query, context, suffix in parts
    ]
    if not prompts:
        return []
    answers = list(backend.generate(prompts, system=template.system))
    if len(answers) != len(prompts):
        raise BackendError(
            f"backend returned {len(answers)} answers for {len(prompts)} prompts"
        )
    return answers


@dataclass(eq=False, repr=False)
class _Answerer(Transformer):
    # Shared by Reader and ZeroShot: rows in qid order, one prompt each
    # (a zero-shot template has no {context}, so qcontext is never used)
    backend: Backend
    template: PromptTemplate | None = None

    def __post_init__(self) -> None:
        self.template = self.template or self.default_template

    def apply(self, frame: Frame) -> Frame:
        rows = sorted(frame.rows, key=lambda r: r["qid"])
        answers = _generate(
            self.backend,
            self.template,
            [(r["query"], r.get("qcontext", ""), "") for r in rows],
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


@dataclass(frozen=True)
class PhraseExit:
    """Exit predicate: true when the generated step contains the phrase
    (case-insensitive). Predicates over the same phrase are equal, so
    pipelines using them compare equal structurally."""

    phrase: str = DEFAULT_EXIT_PHRASE

    def __post_init__(self) -> None:
        object.__setattr__(self, "phrase", self.phrase.lower())

    def __call__(self, row: dict) -> bool:
        return self.phrase in row["qanswer"].lower()


phrase_exit = PhraseExit


def _strip_answer(text: str) -> str:
    return text.strip().rstrip(string.punctuation + " \t\r\n").strip()


@dataclass(eq=False, repr=False)
class IterativeRetriever(Transformer):
    """Q -> A: interleaved retrieval and generation.

    Per query: retrieve with the current query text, fold the new top
    documents into an accumulated, docno-deduplicated set (first-seen order),
    build a context from that set as a Concatenator over `fields` would,
    render the prompt with the original question followed by the chain of
    previously generated sentences, generate one continuation, and stop as
    soon as exit_condition accepts it (or after max_iterations). The whole
    prompt is fitted to the backend's max_input_chars by cutting the context
    tail; if the question and the chain alone do not fit, the stage fails
    with TemplateError. Each later retrieval uses the original question plus
    the latest sentence. The answer is the text after the first exit phrase
    when present, the whole chain otherwise; an `iterations` column reports
    the loop count.
    """

    retriever: Transformer
    backend: Backend
    template: PromptTemplate | None = None
    exit_condition: Callable[[dict], bool] | None = None
    exit_phrase: str = DEFAULT_EXIT_PHRASE
    max_iterations: int = 4
    docs_per_iteration: int = 4
    fields: Sequence[str] = ("text",)

    signature = Signature(SemType.Q, SemType.A)
    name = "ircot"

    def __post_init__(self) -> None:
        sig = type_check(self.retriever)
        if sig.input is not SemType.Q or sig.output is not SemType.R:
            raise TypeMismatch(Signature(SemType.Q, SemType.R), sig, "ircot.retriever")
        check_positive(self.max_iterations, "max_iterations")
        check_positive(self.docs_per_iteration, "docs_per_iteration")
        self.template = self.template or DEFAULT_ITERATIVE_TEMPLATE
        self.exit_phrase = self.exit_phrase.lower()
        self.exit_condition = self.exit_condition or phrase_exit(self.exit_phrase)
        self.fields = tuple(self.fields)
        # budgets at the backend's limit never cut what the prompt fitting
        # would keep, so the context is cut only once, to fit the prompt
        limit = self.backend.max_input_chars
        self.concat = Concatenator(fields=self.fields, per_doc_char_budget=limit,
                                   total_char_budget=limit)

    def apply(self, frame: Frame) -> Frame:
        out = []
        for row in sorted(frame.rows, key=lambda r: r["qid"]):
            out.append(self._answer_one(row["qid"], row["query"]))
        return Frame(SemType.A, out)

    def _answer_one(self, qid: str, question: str) -> dict:
        accumulated: list[dict] = []
        seen: set[str] = set()
        chain: list[str] = []
        current_query = question
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            q = Frame(SemType.Q, [{"qid": qid, "query": current_query}])
            rows = rank_ordered(run(self.retriever, q).rows)
            for r in rows[: self.docs_per_iteration]:
                if r["docno"] not in seen:
                    seen.add(r["docno"])
                    accumulated.append(r)
            context = self.concat.render(accumulated)
            suffix = "\n" + " ".join(chain) if chain else ""
            sentence = _generate(
                self.backend, self.template, [(question, context, suffix)]
            )[0]
            chain.append(sentence)
            if self.exit_condition({"qid": qid, "qanswer": sentence}):
                break
            current_query = question + " " + sentence
        full = " ".join(chain)
        pos = full.lower().find(self.exit_phrase)
        if pos >= 0:
            answer = _strip_answer(full[pos + len(self.exit_phrase):])
        else:
            answer = full
        return {"qid": qid, "qanswer": answer, "iterations": iterations}


ircot = IterativeRetriever
