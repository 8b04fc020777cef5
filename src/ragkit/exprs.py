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
`reader(backend=stub:echo)` works unquoted. An argument may be given once.
Errors carry character offsets (str indices) into the source text; a stage
constructor's rejection is placed at the first argument the stage refuses
on its own, or else at the stage.

Stages: bm25, attach, concat, prompt, reader, zeroshot, ircot. Each has one
entry in _STAGES: its class, a builder from its arguments and a read-back of
every argument from a node's fields. Parsing builds through the entry and
printing reads through it, so a leaf prints the same however it was built.
Stages that touch the index (bm25, attach, ircot) need an Env carrying one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import ExprError, InvalidK, TemplateError
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

# The binary operators, loosest first: symbol, combinator, node class. The
# parser and the printer take precedence from this order; "%" binds tighter
# still, at level _CUT, and is parsed apart as its operand is an integer.
_BINARY = (
    (">>", then, Then),
    ("|", set_union, SetUnion),
    ("+", combine_sum, CombineSum),
)
_CUT = len(_BINARY)


@dataclass
class Env:
    """What stage construction may need: a lazily loaded index and a
    backend factory (overridable in tests). Equal BM25 retrievers built
    through one Env are one instance, so they hold one impact array."""

    index_provider: Callable[[], InvertedIndex] | None = None
    backend_factory: Callable[[str, int], Backend] | None = None
    _index: InvertedIndex | None = field(default=None, repr=False)
    _retrievers: dict = field(default_factory=dict, repr=False)

    def index(self, offset: int) -> InvertedIndex:
        if self._index is None:
            if self.index_provider is None:
                raise ExprError("this stage needs an index (pass --index)", offset)
            self._index = self.index_provider()
        return self._index

    def _retriever(self, built: BM25Retriever) -> BM25Retriever:
        return self._retrievers.setdefault(built, built)

    def backend(self, spec: str, offset: int) -> Backend:
        if self.backend_factory is not None:
            return self.backend_factory(spec, offset)
        return default_backend(spec, offset)


# stub:<name> specs and the StubBackend mode each builds; the printer names
# a stub by the same table
_STUB_MODES = {"echo": "echo_query", "extract": "extractive_first_sentence"}


def default_backend(spec: str, offset: int) -> Backend:
    """Parse a backend spec: stub:echo, stub:extract, or http:<model>."""
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        mode = rest or "echo"
        if mode in _STUB_MODES:
            return StubBackend(_STUB_MODES[mode])
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

    def _eat(self, token: str) -> bool:
        self._ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def _expect(self, token: str) -> None:
        if not self._eat(token):
            raise ExprError(f"expected {token!r}", self.pos)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Transformer:
        node = self._binary(0)
        self._ws()
        if self.pos != len(self.text):
            raise ExprError(
                f"unexpected trailing input {self.text[self.pos:self.pos + 10]!r}",
                self.pos,
            )
        return node

    def _binary(self, level: int) -> Transformer:
        """Operands of the operator at `level` of _BINARY, left-associated."""
        if level == _CUT:
            return self._cut()
        symbol, combine, _ = _BINARY[level]
        node = self._binary(level + 1)
        while self._eat(symbol):
            node = combine(node, self._binary(level + 1))
        return node

    def _cut(self) -> Transformer:
        node = self._atom()
        while self._eat("%"):
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
        return node

    def _atom(self) -> Transformer:
        self._ws()
        if self._eat("("):
            node = self._binary(0)
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
        at = {"": start}  # the offset of each argument's value, and of the stage
        if self._eat("("):
            self._ws()
            if not self._eat(")"):
                while True:
                    self._ws()
                    km = _NAME_RE.match(self.text, self.pos)
                    if not km:
                        raise ExprError("expected an argument name", self.pos)
                    key = km.group(0)
                    if key in args:
                        raise ExprError(f"argument {key!r} given twice", self.pos)
                    self.pos = km.end()
                    self._expect("=")
                    self._ws()
                    at[key] = self.pos
                    args[key] = self._value()
                    if self._eat(")"):
                        break
                    self._expect(",")
        return _build_stage(name, args, at, self.env)

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


@dataclass(frozen=True)
class _Stage:
    """One expression stage. `build(a, env, at)` makes its node from the
    arguments `a` given over `defaults`, the expression defaults that differ
    from the constructor's (the constructor supplies the rest); `at` maps
    each argument, and "" the stage, to its offset. `read` reads every
    argument back from a node's fields, in print order."""

    cls: type
    build: Callable[[dict, Env, dict], Transformer]
    read: Callable[[Transformer], dict]
    defaults: dict = field(default_factory=dict)


def _given(a: dict, **params: str) -> dict:
    """param=value for each param=argument pair whose argument `a` holds; a
    `fields` argument, in every stage, is field names joined by "+"."""
    return {param: _fields_list(a[arg]) if arg == "fields" else a[arg]
            for param, arg in params.items() if arg in a}


def _backend(a: dict, env: Env, at: dict) -> Backend:
    return env.backend(str(a["backend"]), at.get("backend", at[""]))


def _template(cls, a: dict) -> PromptTemplate:
    return replace(cls.default_template, **_given(a, system="system", user_template="user"))


def _template_args(node) -> dict:
    return {"system": node.template.system, "user": node.template.user_template}


def _answerer(cls) -> _Stage:
    return _Stage(cls, lambda a, env, at: cls(_backend(a, env, at), _template(cls, a)),
                  lambda n: {"backend": _spec(n.backend)} | _template_args(n),
                  {"backend": "stub:echo"})


_STAGES = {
    # the expression surface attaches text by default so that
    # "bm25 >> concat >> reader" works without an explicit attach stage;
    # pass fields="" to index-only rows
    "bm25": _Stage(
        BM25Retriever,
        lambda a, env, at: env._retriever(BM25Retriever(
            env.index(at[""]), BM25Params(**_given(a, k1="k1", b="b")),
            **_given(a, num_results="k", include_fields="fields"))),
        lambda n: {"k": n.num_results, "k1": n.bm25.k1, "b": n.bm25.b,
                   "fields": n.include_fields},
        {"fields": "text"}),
    "attach": _Stage(
        TextAttacher,
        lambda a, env, at: TextAttacher(env.index(at[""]), **_given(a, fields="fields")),
        lambda n: {"fields": n.fields}, {"fields": "text"}),
    "concat": _Stage(
        Concatenator,
        lambda a, env, at: Concatenator(**_given(
            a, k_docs="docs", fields="fields", per_doc_char_budget="per_doc",
            total_char_budget="total", item_separator="sep")),
        lambda n: {"docs": n.k_docs, "fields": n.fields, "per_doc": n.per_doc_char_budget,
                   "total": n.total_char_budget, "sep": n.item_separator}),
    "prompt": _Stage(PromptRenderer, lambda a, env, at: PromptRenderer(_template(Reader, a)),
                     _template_args),
    "reader": _answerer(Reader),
    "zeroshot": _answerer(ZeroShot),
    # the loop's retriever attaches the fields its context is built from
    "ircot": _Stage(
        IterativeRetriever,
        lambda a, env, at: IterativeRetriever(
            env._retriever(BM25Retriever(env.index(at[""]), **_given(
                a, num_results="k", include_fields="fields"))),
            _backend(a, env, at), _template(IterativeRetriever, a),
            **_given(a, exit_phrase="exit", max_iterations="iters",
                     docs_per_iteration="docs", fields="fields")),
        lambda n: {"backend": _spec(n.backend)} | _template_args(n) | {
            "k": n.retriever.num_results, "docs": n.docs_per_iteration,
            "iters": n.max_iterations, "exit": n.exit_phrase, "fields": n.fields},
        {"backend": "stub:echo", "k": 100, "fields": "text"}),
}

# what a stage constructor raises for an argument it refuses
_REFUSED = (TypeError, ValueError, AttributeError, TemplateError)


def _build_stage(name: str, args: dict, at: dict[str, int], env: Env) -> Transformer:
    if name not in _STAGES:
        raise ExprError(
            f"unknown stage {name!r} (stages: {', '.join(sorted(_STAGES))})", at[""]
        )
    stage = _STAGES[name]
    try:
        node = stage.build(stage.defaults | args, env, at)
    except _REFUSED as exc:
        # placed at the first argument the stage refuses on its own, unless
        # it refuses its defaults too
        trials = [] if _refuses(stage, {}, env, at) else list(args)
        bad = next((key for key in trials if _refuses(stage, {key: args[key]}, env, at)), "")
        raise ExprError(f"bad arguments for {name}: {exc}", at[bad]) from None
    # a builder reads only its own arguments; the known ones are read back
    extra = sorted(set(args) - set(stage.read(node)))
    if extra:
        raise ExprError(f"unknown argument(s) for {name}: {', '.join(extra)}", at[""])
    return node


def _refuses(stage: _Stage, args: dict, env: Env, at: dict[str, int]) -> bool:
    try:
        stage.build(stage.defaults | args, env, at)
    except _REFUSED:
        return True
    return False


# -- printing ------------------------------------------------------------------

def print_expr(node: Transformer) -> str:
    """Render a pipeline back to expression syntax.

    The text is canonical, read from the nodes' fields, so
    parse(print_expr(p), env) == p however p was built. A leaf prints its
    arguments in table order, leaving out those equal to a default-built
    stage's; one whose fields the syntax cannot state (a scripted stub, an
    item template, a function stage, ...) raises ValueError, as does a
    CombineSum whose weights are not both 1.0: the syntax has no weights.
    """
    return _render(node, 0)


def _render(node: Transformer, context: int) -> str:
    """node's text, in parentheses if it binds looser than level `context`."""
    for level, (symbol, _, cls) in enumerate(_BINARY):
        if isinstance(node, cls):
            if cls is CombineSum and (node.weight_left, node.weight_right) != (1.0, 1.0):
                raise ValueError(
                    f"cannot print combine_sum weights {node.weight_left} and "
                    f"{node.weight_right}: expressions have no weights")
            # a `then` spine prints flat: == ignores how it associates
            head, *rest = components(node) if cls is Then else (node.left, node.right)
            text = f" {symbol} ".join(
                [_render(head, level)] + [_render(r, level + 1) for r in rest]
            )
            break
    else:
        if not isinstance(node, RankCutoff):
            return _leaf(node)
        level, text = _CUT, f"{_render(node.child, _CUT)} % {node.k}"
    return f"({text})" if level < context else text


def _leaf(node: Transformer) -> str:
    """The stage call that rebuilds `node`; ValueError if there is none."""
    name = next((n for n, stage in _STAGES.items() if isinstance(node, stage.cls)), None)
    # a stage that needs an index gets the node's own (ircot: its retriever's)
    env = Env(index_provider=lambda: getattr(node, "retriever", node).index)
    try:
        stage = _STAGES[name]  # KeyError: no stage builds this class
        default = stage.read(stage.build(stage.defaults, env, {"": 0}))
        args = [f"{k}={_literal(v)}" for k, v in stage.read(node).items() if v != default[k]]
        text = f"{name}({', '.join(args)})" if args else name
        if parse(text, env) == node:
            return text
    except (KeyError, AttributeError, TypeError, ExprError):
        pass
    raise ValueError(f"cannot print {node!r}: the syntax cannot state all of its fields")


def _literal(value) -> str:
    """`value` as an argument: a field list joined by "+", a string bare
    only if it reads back as that same word."""
    if isinstance(value, tuple):
        value = "+".join(value)
    if not isinstance(value, str):
        return "none" if value is None else json.dumps(value)
    reader = _Parser(value, Env())
    try:
        bare = reader._value() == value and reader.pos == len(value)
    except ExprError:
        bare = False
    return value if bare else json.dumps(value, ensure_ascii=False)


def _spec(backend: Backend) -> str:
    """The spec naming `backend`: its descriptor, with a stub's short mode."""
    stubs = {f"stub:{mode}": f"stub:{name}" for name, mode in _STUB_MODES.items()}
    return stubs.get(backend.descriptor, backend.descriptor)
