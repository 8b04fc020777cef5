"""Textual pipeline expressions for the command line.

Grammar:

    pipeline := union (">>" union)*
    union    := sum ("|" sum)*
    sum      := cut ("+" cut)*
    cut      := atom ("%" INTEGER)*
    atom     := "(" pipeline ")" | stage
    stage    := NAME [ "(" key "=" value ("," key "=" value)* ")" ]

"%" binds tightest, then "+", then "|", then ">>"; parentheses override.
Values are integers, floats, true/false/none, JSON-style double-quoted
strings (escapes allowed), or bare words (no spaces, commas or parens), so
`reader(backend=stub:echo)` works unquoted. Errors carry character offsets
into the source text.

Stages: bm25, attach, concat, prompt, reader, zeroshot, ircot. Stages that
touch the index (bm25, attach, ircot) need an Env carrying one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import ExprError, InvalidK
from .index import BM25Params, BM25Retriever, InvertedIndex, TextAttacher
from .rag import (
    Backend,
    Concatenator,
    HttpBackend,
    IterativeRetriever,
    PromptRenderer,
    PromptTemplate,
    Reader,
    StubBackend,
    ZeroShot,
    DEFAULT_RAG_TEMPLATE,
    DEFAULT_ZERO_SHOT_TEMPLATE,
    DEFAULT_ITERATIVE_TEMPLATE,
)
from .transformer import (
    CombineSum,
    RankCutoff,
    SetUnion,
    Then,
    Transformer,
    combine_sum,
    components,
    rank_cutoff,
    set_union,
    then,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[-+]?\d+(\.\d+)?([eE][-+]?\d+)?")
# bareword values live between "=" and "," or ")", so "+" is safe inside
# them (field lists like text+title); pipeline operators never appear there
_BARE_RE = re.compile(r"[^\s,()=%|>]+")
_INT_RE = re.compile(r"\d+")


@dataclass
class Env:
    """What stage construction may need: a lazily loaded index and a
    backend factory (overridable in tests)."""

    index_provider: Callable[[], InvertedIndex] | None = None
    backend_factory: Callable[[str, int], Backend] | None = None
    _index: InvertedIndex | None = field(default=None, repr=False)

    def index(self, offset: int) -> InvertedIndex:
        if self._index is None:
            if self.index_provider is None:
                raise ExprError("this stage needs an index (pass --index)", offset)
            self._index = self.index_provider()
        return self._index

    def backend(self, spec: str, offset: int) -> Backend:
        if self.backend_factory is not None:
            return self.backend_factory(spec, offset)
        return default_backend(spec, offset)


def default_backend(spec: str, offset: int) -> Backend:
    """Parse a backend spec: stub:echo, stub:extract, or http:<model>."""
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        mode = rest or "echo"
        if mode == "echo":
            return StubBackend("echo_query")
        if mode == "extract":
            return StubBackend("extractive_first_sentence")
        raise ExprError(
            f"unknown stub backend {mode!r} (use stub:echo or stub:extract)", offset
        )
    if kind == "http":
        if not rest:
            raise ExprError("http backend needs a model: http:<model>", offset)
        return HttpBackend(model=rest)
    raise ExprError(
        f"unknown backend {spec!r} (use stub:echo, stub:extract or http:<model>)",
        offset,
    )


class _Parser:
    def __init__(self, text: str, env: Env) -> None:
        self.text = text
        self.env = env
        self.pos = 0

    # -- lexing helpers ----------------------------------------------------

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self, token: str) -> bool:
        self._ws()
        return self.text.startswith(token, self.pos)

    def _eat(self, token: str) -> bool:
        if self._peek(token):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._eat(token):
            raise ExprError(f"expected {token!r}", self.pos)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Transformer:
        node = self._pipeline()
        self._ws()
        if self.pos != len(self.text):
            raise ExprError(
                f"unexpected trailing input {self.text[self.pos:self.pos + 10]!r}",
                self.pos,
            )
        return node

    def _pipeline(self) -> Transformer:
        node = self._union()
        while self._eat(">>"):
            node = then(node, self._union())
        return node

    def _union(self) -> Transformer:
        node = self._sum()
        while self._eat("|"):
            node = set_union(node, self._sum())
        return node

    def _sum(self) -> Transformer:
        node = self._cut()
        while self._eat("+"):
            node = combine_sum(node, self._cut())
        return node

    def _cut(self) -> Transformer:
        node = self._atom()
        while True:
            self._ws()
            # ">>" starts with ">", not "%": safe to test "%" directly
            if not self._peek("%"):
                return node
            self._eat("%")
            self._ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                raise ExprError("expected a positive integer after %", self.pos)
            k = int(m.group(0))
            offset = self.pos
            self.pos = m.end()
            try:
                node = rank_cutoff(node, k)
            except InvalidK:
                raise ExprError(f"cutoff must be positive, got {k}", offset) from None

    def _atom(self) -> Transformer:
        self._ws()
        if self._eat("("):
            node = self._pipeline()
            self._expect(")")
            return node
        return self._stage()

    def _stage(self) -> Transformer:
        self._ws()
        start = self.pos
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ExprError("expected a stage name", self.pos)
        name = m.group(0)
        self.pos = m.end()
        args: dict[str, object] = {}
        offsets: dict[str, int] = {}
        if self._eat("("):
            self._ws()
            if not self._eat(")"):
                while True:
                    self._ws()
                    km = _NAME_RE.match(self.text, self.pos)
                    if not km:
                        raise ExprError("expected an argument name", self.pos)
                    key = km.group(0)
                    self.pos = km.end()
                    self._expect("=")
                    self._ws()
                    offsets[key] = self.pos
                    args[key] = self._value()
                    if self._eat(")"):
                        break
                    self._expect(",")
        node = _build_stage(name, args, offsets, start, self.env)
        node._expr_src = self.text[start:self.pos].strip()
        return node

    def _value(self):
        ch = self.text[self.pos] if self.pos < len(self.text) else ""
        if ch == '"':
            return self._string()
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            end = m.end()
            # a number immediately followed by word chars is a bareword
            # (e.g. 4o in gpt-4o), not a number
            if end >= len(self.text) or self.text[end] in " \t\r\n,()":
                self.pos = end
                text = m.group(0)
                return float(text) if ("." in text or "e" in text.lower()) else int(text)
        m = _BARE_RE.match(self.text, self.pos)
        if not m:
            raise ExprError("expected a value", self.pos)
        self.pos = m.end()
        word = m.group(0)
        lowered = word.lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        if lowered == "none":
            return None
        return word

    def _string(self) -> str:
        start = self.pos
        i = self.pos + 1
        while i < len(self.text):
            if self.text[i] == "\\":
                i += 2
                continue
            if self.text[i] == '"':
                raw = self.text[start:i + 1]
                self.pos = i + 1
                try:
                    return json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ExprError(f"bad string literal: {exc}", start) from None
            i += 1
        raise ExprError("unterminated string literal", start)


def parse(text: str, env: Env | None = None) -> Transformer:
    """Parse a pipeline expression into a transformer tree.

    Composition type errors (e.g. feeding results into a reader without a
    concat in between) surface as TypeMismatch from the combinators, with
    the offending types named; syntax errors raise ExprError with offsets.
    """
    return _Parser(text, env or Env()).parse()


def _fields_list(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(f for f in re.split(r"[+\s]+", value) if f)
    raise ValueError(f"expected a field list, got {value!r}")


def _take(args: dict, **names: str) -> dict:
    """Constructor keyword arguments, as parameter=value, for each
    parameter=argument pair of `names` whose argument the expression gives;
    values pass unchanged, so the constructor checks them and supplies
    its own defaults."""
    return {param: args.pop(arg) for param, arg in names.items() if arg in args}


def _template_from_args(args: dict, default: PromptTemplate) -> PromptTemplate:
    system = args.pop("system", None)
    user = args.pop("user", None)
    if system is None and user is None:
        return default
    return PromptTemplate(
        user_template=user if user is not None else default.user_template,
        system=system if system is not None else default.system,
    )


def _build_stage(
    name: str, args: dict, offsets: dict, offset: int, env: Env
) -> Transformer:
    try:
        node = _STAGES[name](args, offsets, offset, env)
    except KeyError:
        raise ExprError(
            f"unknown stage {name!r} (stages: {', '.join(sorted(_STAGES))})", offset
        ) from None
    except ExprError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise ExprError(f"bad arguments for {name}: {exc}", offset) from None
    if args:
        extra = ", ".join(sorted(args))
        raise ExprError(f"unknown argument(s) for {name}: {extra}", offset)
    return node


def _stage_bm25(args, offsets, offset, env):
    # the expression surface attaches text by default so that
    # "bm25 >> concat >> reader" works without an explicit attach stage;
    # pass fields="" to index-only rows
    return BM25Retriever(
        env.index(offset),
        BM25Params(**_take(args, k1="k1", b="b")),
        include_fields=_fields_list(args.pop("fields", "text")),
        # k is the short name of num_results and wins when both are given
        **_take(args, num_results="num_results") | _take(args, num_results="k"),
    )


def _stage_attach(args, offsets, offset, env):
    return TextAttacher(env.index(offset), _fields_list(args.pop("fields", "text")))


def _stage_concat(args, offsets, offset, env):
    kwargs = _take(args, k_docs="docs", fields="fields", per_doc_char_budget="per_doc",
                   total_char_budget="total", item_separator="sep")
    if "fields" in kwargs:
        kwargs["fields"] = _fields_list(kwargs["fields"])
    return Concatenator(**kwargs)


def _stage_prompt(args, offsets, offset, env):
    template = _template_from_args(args, DEFAULT_RAG_TEMPLATE)
    return PromptRenderer(template)


def _stage_reader(args, offsets, offset, env):
    spec = args.pop("backend", "stub:echo")
    backend = env.backend(str(spec), offsets.get("backend", offset))
    template = _template_from_args(args, DEFAULT_RAG_TEMPLATE)
    return Reader(backend, template)


def _stage_zeroshot(args, offsets, offset, env):
    spec = args.pop("backend", "stub:echo")
    backend = env.backend(str(spec), offsets.get("backend", offset))
    template = _template_from_args(args, DEFAULT_ZERO_SHOT_TEMPLATE)
    return ZeroShot(backend, template)


def _stage_ircot(args, offsets, offset, env):
    spec = args.pop("backend", "stub:echo")
    backend = env.backend(str(spec), offsets.get("backend", offset))
    # the loop's retriever attaches the fields its context is built from
    fields = _fields_list(args.pop("fields", "text"))
    retriever = BM25Retriever(env.index(offset), num_results=args.pop("k", 100),
                              include_fields=fields)
    template = _template_from_args(args, DEFAULT_ITERATIVE_TEMPLATE)
    return IterativeRetriever(
        retriever, backend, template, fields=fields,
        **_take(args, exit_phrase="exit", max_iterations="iters",
                docs_per_iteration="docs"),
    )


_STAGES = {
    "bm25": _stage_bm25,
    "attach": _stage_attach,
    "concat": _stage_concat,
    "prompt": _stage_prompt,
    "reader": _stage_reader,
    "zeroshot": _stage_zeroshot,
    "ircot": _stage_ircot,
}


# -- printing ------------------------------------------------------------------

_LEVEL_THEN, _LEVEL_UNION, _LEVEL_SUM, _LEVEL_CUT, _LEVEL_LEAF = range(5)


def _level(node: Transformer) -> int:
    if isinstance(node, Then):
        return _LEVEL_THEN
    if isinstance(node, SetUnion):
        return _LEVEL_UNION
    if isinstance(node, CombineSum):
        return _LEVEL_SUM
    if isinstance(node, RankCutoff):
        return _LEVEL_CUT
    return _LEVEL_LEAF


def print_expr(node: Transformer) -> str:
    """Render a pipeline back to expression syntax.

    parse(print_expr(p), env) is structurally equal to p for every
    parser-built p (leaves remember their source form). Leaves built in
    code render as their bare stage name.
    """
    return _render(node, _LEVEL_THEN)


def _render(node: Transformer, context: int) -> str:
    level = _level(node)
    if isinstance(node, Then):
        text = " >> ".join(_render(c, _LEVEL_UNION) for c in components(node))
    elif isinstance(node, SetUnion):
        text = (
            _render(node.left, _LEVEL_UNION)
            + " | "
            + _render(node.right, _LEVEL_SUM)
        )
    elif isinstance(node, CombineSum):
        text = (
            _render(node.left, _LEVEL_SUM)
            + " + "
            + _render(node.right, _LEVEL_CUT)
        )
    elif isinstance(node, RankCutoff):
        text = _render(node.child, _LEVEL_CUT) + f" % {node.k}"
    else:
        text = getattr(node, "_expr_src", node.name)
    if level < context:
        return f"({text})"
    return text
