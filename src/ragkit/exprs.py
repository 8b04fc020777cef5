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


def _take(args: dict, offsets: dict, **names: str) -> dict:
    """Constructor keyword arguments, as parameter=value, for each
    parameter=argument pair of `names` whose argument the expression gives;
    values pass unchanged, so the constructor checks them and supplies
    its own defaults. Each such parameter's offset is recorded under its own
    name as well, so an error that names the parameter can be placed."""
    taken = {param: arg for param, arg in names.items() if arg in args}
    offsets.update({param: offsets[arg] for param, arg in taken.items()})
    return {param: args.pop(arg) for param, arg in taken.items()}


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
    if name not in _STAGES:
        raise ExprError(
            f"unknown stage {name!r} (stages: {', '.join(sorted(_STAGES))})", offset
        )
    try:
        node = _STAGES[name](args, offsets, offset, env)
    except ExprError:
        raise
    except InvalidK as exc:
        # reported at the argument that set the count
        at = offsets.get(exc.name, offset)
        raise ExprError(f"bad arguments for {name}: {exc}", at) from None
    except TemplateError as exc:
        # the `user` template is the one argument with placeholders
        at = offsets.get("user", offset)
        raise ExprError(f"bad arguments for {name}: {exc}", at) from None
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
        BM25Params(**_take(args, offsets, k1="k1", b="b")),
        include_fields=_fields_list(args.pop("fields", "text")),
        # k is the short name of num_results and wins when both are given
        **_take(args, offsets, num_results="num_results")
        | _take(args, offsets, num_results="k"),
    )


def _stage_attach(args, offsets, offset, env):
    return TextAttacher(env.index(offset), _fields_list(args.pop("fields", "text")))


def _stage_concat(args, offsets, offset, env):
    kwargs = _take(args, offsets, k_docs="docs", fields="fields", item_separator="sep",
                   per_doc_char_budget="per_doc", total_char_budget="total")
    if "fields" in kwargs:
        kwargs["fields"] = _fields_list(kwargs["fields"])
    return Concatenator(**kwargs)


def _stage_prompt(args, offsets, offset, env):
    return PromptRenderer(_template_from_args(args, Reader.default_template))


def _backend_and_template(cls, args, offsets, offset, env):
    """The backend and template arguments of a generating stage `cls`."""
    spec = args.pop("backend", "stub:echo")
    backend = env.backend(str(spec), offsets.get("backend", offset))
    return backend, _template_from_args(args, cls.default_template)


def _stage_reader(args, offsets, offset, env):
    return Reader(*_backend_and_template(Reader, args, offsets, offset, env))


def _stage_zeroshot(args, offsets, offset, env):
    return ZeroShot(*_backend_and_template(ZeroShot, args, offsets, offset, env))


def _stage_ircot(args, offsets, offset, env):
    backend, template = _backend_and_template(IterativeRetriever, args, offsets, offset, env)
    # the loop's retriever attaches the fields its context is built from
    fields = _fields_list(args.pop("fields", "text"))
    retriever = BM25Retriever(
        env.index(offset), include_fields=fields,
        **{"num_results": 100} | _take(args, offsets, num_results="k"))
    return IterativeRetriever(
        retriever, backend, template, fields=fields,
        **_take(args, offsets, exit_phrase="exit", max_iterations="iters",
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

def print_expr(node: Transformer) -> str:
    """Render a pipeline back to expression syntax.

    parse(print_expr(p), env) is structurally equal to p for every
    parser-built p (leaves remember their source form). Leaves built in
    code render as their bare stage name. The syntax has no weights, so a
    CombineSum whose weights are not both 1.0 raises ValueError.
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
            return getattr(node, "_expr_src", node.name)
        level, text = _CUT, f"{_render(node.child, _CUT)} % {node.k}"
    return f"({text})" if level < context else text
