"""Transformers and the pipeline operator algebra.

A transformer maps one frame type to another and declares that mapping as a
signature. Signatures of concrete transformers are drawn from ten families:

    Q->R   retrieval              Q->A   zero-shot generation
    R->R   reranking              R->Qc  context creation
    Q->Q   query rewriting        Qc->A  reading
    D->D   document expansion     Qc->Qc prompt rendering
    R->Q   pseudo-relevance fb    D->Terminal  indexing

plus the identity T->T at any type.

Pipelines are trees built from four combinators, each with an operator:

    a >> b   then        feed a's output to b
    a + b    combine     sum per-document scores of two result lists
    a | b    union       set union of two result lists (drops scores)
    a % k    cutoff      keep the first k ranked results per query

Each combinator's class states its rules: its type rule in `_typed`, its
evaluation in `_combine`. type_check and run walk any tree generically; run
names only `then`, whose operands run one after the other. A cutoff hands
them its child cut to k where the child can stop early (`_cut`): a
retriever under `% k` fetches only k rows. The tree is never rewritten.

Every built-in node, composite or leaf, is a dataclass whose compared
fields (its constructor parameters: operands, weights, k, stage arguments)
are its identity, so structural equality (==) is the dataclass's own: same
class, equal fields, all the way down. `then` is flattened: its spine
compares as a sequence with identity stages dropped, so it is associative
under == and identities are neutral. Two separately constructed but
identical pipelines compare equal; this is the basis of shared-prefix
detection in experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

from .errors import PipelineError, TypeMismatch, check_positive
from .frame import Frame, SemType, assign_ranks, by_query, terminal_frame, validate


class _Terminal:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Terminal"


TERMINAL = _Terminal()


@dataclass(frozen=True)
class Signature:
    input: SemType
    output: SemType | _Terminal

    def __str__(self) -> str:
        return f"{self.input} -> {self.output}"


FAMILIES: frozenset[tuple] = frozenset(
    {
        (SemType.Q, SemType.R),
        (SemType.R, SemType.R),
        (SemType.Q, SemType.Q),
        (SemType.D, SemType.D),
        (SemType.R, SemType.Q),
        (SemType.D, TERMINAL),
        (SemType.Q, SemType.A),
        (SemType.R, SemType.QC),
        (SemType.QC, SemType.A),
        (SemType.QC, SemType.QC),
    }
)


def _check_family(signature: Signature) -> None:
    pair = (signature.input, signature.output)
    if pair not in FAMILIES and signature.input is not signature.output:
        raise TypeMismatch(
            "a supported transformer family or T -> T identity", signature
        )


def _freeze(value):
    """A hashable copy of a parameter value: lists become tuples, dicts
    sorted item tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Transformer:
    """Base for pipeline nodes: a signature plus an apply function.

    Two nodes are equal, and interchangeable for prefix sharing, when they
    are of the same class and their compared dataclass fields are equal;
    every built-in node is a dataclass with generated == and hash, and only
    `then` overrides them, to compare its flattened spine without identity
    stages. The class attributes `signature` and `name` say what a node is
    (a composite derives its signature from its operands); its fields, its
    constructor parameters, must capture everything that affects its output,
    and a field that never does is declared field(compare=False). Checks,
    defaults and derived state belong in __post_init__, so a default left out
    equals the same value given. A subclass that is not a dataclass equals
    only itself, as ragkit cannot see its settings. Leaves override
    :meth:`apply`; state must be read-only after construction so concurrent
    applies are safe.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        signature = cls.__dict__.get("signature")
        if isinstance(signature, Signature):
            _check_family(signature)

    def apply(self, frame: Frame) -> Frame:
        raise NotImplementedError

    def __call__(self, frame: Frame) -> Frame:
        return run(self, frame)

    # -- operator algebra ------------------------------------------------

    def __rshift__(self, other: "Transformer") -> "Then":
        return then(self, other)

    def __add__(self, other: "Transformer") -> "CombineSum":
        return combine_sum(self, other)

    def __or__(self, other: "Transformer") -> "SetUnion":
        return set_union(self, other)

    def __mod__(self, k: int) -> "RankCutoff":
        return rank_cutoff(self, k)

    def _cut(self, k: int) -> "Transformer | None":
        """A node whose output is this node's output cut to rank k, so that
        a cutoff can stop its child early; None when there is none."""
        return None

    def __repr__(self) -> str:
        return f"{self.name}[{self.signature}]"


@dataclass(unsafe_hash=True, repr=False)
class FnTransformer(Transformer):
    """Leaf transformer wrapping a plain function; handy for custom stages
    and test mocks. Its identity is its signature, name and params, never
    the function."""

    signature: Signature
    name: str
    fn: Callable[[Frame], Frame] = field(compare=False)
    params: tuple = ()

    def __post_init__(self) -> None:
        _check_family(self.signature)
        self.params = tuple((k, _freeze(v)) for k, v in self.params)

    def apply(self, frame: Frame) -> Frame:
        return self.fn(frame)


class _Identity(FnTransformer):
    """The pass-through stage; a `then` spine drops it when comparing."""


def identity(semtype: SemType) -> FnTransformer:
    """Pass-through transformer at the given type."""
    return _Identity(Signature(semtype, semtype), "identity", lambda f: f,
                     params=(("type", semtype.value),))


# -- composite nodes -------------------------------------------------------
#
# Composite constructors do not type-check, so ill-typed trees can be built
# and inspected; the public helpers below (then, combine_sum, ...) check
# eagerly, and run() always re-checks.


class _Composite(Transformer):
    """An operator node; its fields holding a transformer are its operands.
    The operator's type rule is its `_typed` method and its evaluation its
    `_combine` method, each given one argument per operand field (`then`,
    whose operands run one after the other, is evaluated by _eval)."""

    @property
    def signature(self) -> Signature:
        return type_check(self)

    def _operands(self) -> list[tuple[str, Transformer]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if isinstance(getattr(self, f.name), Transformer)]

    def __repr__(self) -> str:
        try:
            return super().__repr__()
        except TypeMismatch:  # ill-typed: show the fields, as there is no signature
            return f"{self.name}({', '.join(repr(getattr(self, f.name)) for f in fields(self))})"


@dataclass(eq=False, repr=False)
class Then(_Composite):
    left: Transformer
    right: Transformer

    name = "then"

    # Compared by its spine: flattening makes `then` associative under ==,
    # dropping identity stages makes them neutral, and a one-stage spine
    # hashes as that stage, so p >> identity(T) equals p and hashes alike.

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transformer):
            return NotImplemented
        return _spine(self) == _spine(other)

    def __hash__(self) -> int:
        spine = _spine(self)
        return hash(spine[0] if len(spine) == 1 else tuple(spine))

    def _typed(self, at: str, left: Signature, right: Signature) -> Signature:
        if left.output is TERMINAL or left.output is not right.input:
            raise TypeMismatch(right.input, left.output, at)
        return Signature(left.input, right.output)


@dataclass(unsafe_hash=True, repr=False)
class _Merge(_Composite):
    """Two R branches over one input."""

    left: Transformer
    right: Transformer

    def _typed(self, at: str, left: Signature, right: Signature) -> Signature:
        for field, sig in (("left", left), ("right", right)):
            if sig.output is not SemType.R:
                raise TypeMismatch(SemType.R, sig.output, f"{at}.{field}")
        if left.input is not right.input:
            raise TypeMismatch(left.input, right.input, f"{at}.right")
        return Signature(left.input, SemType.R)

    @staticmethod
    def _with_queries(rows: list[dict], left: Frame, right: Frame) -> list[dict]:
        # query text is functionally dependent on qid, so merges can carry it
        # through for downstream context builders; min() of observed values
        # keeps the merge commutative even if the sides disagree
        queries: dict[str, str] = {}
        for frame in (left, right):
            for row in frame.rows:
                if "query" in row:
                    q = row["query"]
                    if row["qid"] not in queries or q < queries[row["qid"]]:
                        queries[row["qid"]] = q
        for row in rows:
            if row["qid"] in queries:
                row["query"] = queries[row["qid"]]
        return rows


@dataclass(unsafe_hash=True, repr=False)
class CombineSum(_Merge):
    weight_left: float = 1.0
    weight_right: float = 1.0

    name = "combine_sum"

    def __post_init__(self) -> None:
        # an infinite weight makes NaN scores (inf * 0, inf - inf) at run time
        for name in ("weight_left", "weight_right"):
            weight = float(getattr(self, name))
            if not math.isfinite(weight):
                raise ValueError(f"{name} must be finite, got {weight!r}")
            setattr(self, name, weight)

    def _combine(self, left: Frame, right: Frame) -> Frame:
        # outer join on (qid, docno); absent side contributes 0. Guaranteed
        # output columns are qid/docno/score/rank; per-qid query text is
        # carried through when the inputs have it, other extras are dropped
        # (merging per-document extras from two sides is ill-defined).
        scores: dict[tuple[str, str], float] = {}
        for frame, weight in ((left, self.weight_left), (right, self.weight_right)):
            for row in frame.rows:
                key = (row["qid"], row["docno"])
                scores[key] = scores.get(key, 0.0) + weight * float(row.get("score", 0.0))
        rows = [{"qid": qid, "docno": docno, "score": score}
                for (qid, docno), score in scores.items()]
        return assign_ranks(self._with_queries(rows, left, right))


class SetUnion(_Merge):
    name = "set_union"

    def _combine(self, left: Frame, right: Frame) -> Frame:
        # per qid, qids ascending: left's rows in rank order, then right's
        # rows not already seen, in right's rank order (the sort is stable).
        # Scores and ranks are dropped: a union of two differently
        # calibrated score lists has no meaningful single score.
        rows: dict[tuple[str, str], dict] = {}
        for frame in (left, right):
            for qid, group in by_query(frame):
                for row in group:
                    rows.setdefault((qid, row["docno"]), {"qid": qid, "docno": row["docno"]})
        laid_out = sorted(rows.values(), key=lambda r: r["qid"])
        return Frame(SemType.R, self._with_queries(laid_out, left, right))


@dataclass(unsafe_hash=True, repr=False)
class RankCutoff(_Composite):
    """Keeps each query's first k rows, read through `by_query`. Its
    child runs as child._cut(k) where that exists, so a retriever fetches
    only k rows."""

    child: Transformer
    k: int

    name = "rank_cutoff"

    def __post_init__(self) -> None:
        check_positive(self.k)

    def _cut(self, k: int) -> "RankCutoff":
        return self if k >= self.k else RankCutoff(self.child, k)

    def _operands(self) -> list[tuple[str, Transformer]]:
        return [("child", self.child._cut(self.k) or self.child)]

    def _typed(self, at: str, child: Signature) -> Signature:
        if child.output is not SemType.R:
            raise TypeMismatch(SemType.R, child.output, f"{at}.child")
        return child

    def _combine(self, child: Frame) -> Frame:
        return Frame(SemType.R, [r for _, rows in by_query(child) for r in rows[: self.k]])


def components(p: Transformer) -> list[Transformer]:
    """Flatten the top-level `then` spine of a pipeline into a component
    sequence; every non-Then node (leaves included) is one component."""
    if isinstance(p, Then):
        return components(p.left) + components(p.right)
    return [p]


def _spine(p: Transformer) -> list[Transformer]:
    """p's components without identity stages (the first, if all are)."""
    parts = components(p)
    return [c for c in parts if not isinstance(c, _Identity)] or parts[:1]


def chain(parts: Sequence[Transformer]) -> Transformer:
    """Rebuild a pipeline from a component sequence (left-associated)."""
    if not parts:
        raise ValueError("cannot chain zero components")
    out = parts[0]
    for part in parts[1:]:
        out = Then(out, part)
    return out


# -- public combinators -----------------------------------------------------


def _checked(node: _Composite) -> _Composite:
    type_check(node)
    return node


def then(a: Transformer, b: Transformer) -> Then:
    """Sequential composition: b applied to a's output."""
    return _checked(Then(a, b))


def combine_sum(
    a: Transformer, b: Transformer, wa: float = 1.0, wb: float = 1.0
) -> CombineSum:
    """Weighted score sum of two result lists (missing documents score 0)."""
    return _checked(CombineSum(a, b, wa, wb))


def set_union(a: Transformer, b: Transformer) -> SetUnion:
    """Set union of two result lists; scores and ranks are dropped."""
    return _checked(SetUnion(a, b))


def rank_cutoff(a: Transformer, k: int) -> RankCutoff:
    """Keep each query's first k results in rank order."""
    return _checked(RankCutoff(a, k))


# -- type checking ----------------------------------------------------------


def _path_str(path: tuple[str, ...]) -> str:
    return "/".join(path) if path else "<root>"


def type_check(p: Transformer) -> Signature:
    """Synthesize the pipeline's signature bottom-up.

    Pure: inspects the tree only, never runs a transformer. Raises
    TypeMismatch carrying the path of the offending subtree.
    """
    return _check(p, ())


def _check(node: Transformer, path: tuple[str, ...]) -> Signature:
    if not isinstance(node, _Composite):
        return node.signature
    return node._typed(_path_str(path + (node.name,)), **{
        field: _check(child, path + (f"{node.name}.{field}",))
        for field, child in node._operands()
    })


# -- execution ---------------------------------------------------------------

TraceFn = Callable[[str, str, int], None]


def run(p: Transformer, frame: Frame, trace: TraceFn | None = None) -> Frame:
    """Type-check, validate the input and evaluate the tree. Each leaf is
    invoked exactly once per position per run (under a cutoff, as its
    `_cut` copy), and its output is checked where it is produced, under
    the leaf's path (a terminal stage's must be empty); combinator outputs
    are built from those validated frames and are not checked again, so
    every frame is validated once; a frame that arrives already checked, as
    a shared prefix's output does in `experiment`, passes on its remembered
    check. Any node's failure, even a PipelineError from a pipeline a leaf
    runs itself, is raised as a PipelineError at that node's path.

    `trace`, when given, is called as trace(path, node_name, out_row_count)
    after every node finishes.
    """
    validate(frame, type_check(p).input, allow_unscored_r=True)
    return _eval(p, frame, (), trace)


def _eval(
    node: Transformer,
    frame: Frame,
    path: tuple[str, ...],
    trace: TraceFn | None,
) -> Frame:
    if isinstance(node, Then):
        mid = _eval(node.left, frame, path + ("then.left",), trace)
        out = _eval(node.right, mid, path + ("then.right",), trace)
    else:
        # a composite's operands first: their failures carry their own paths
        operands = None if not isinstance(node, _Composite) else {
            field: _eval(child, frame, path + (f"{node.name}.{field}",), trace)
            for field, child in node._operands()
        }
        try:
            if operands is not None:
                out = node._combine(**operands)
            elif node.signature.output is not TERMINAL:
                out = validate(node.apply(frame), node.signature.output, allow_unscored_r=True)
            elif (out := node.apply(frame)) is None:
                out = terminal_frame()
            elif len(out) != 0:
                raise ValueError("terminal output must be empty")
        except Exception as exc:
            raise PipelineError(_path_str(path + (node.name,)), exc) from exc
    if trace is not None:
        trace(_path_str(path + (node.name,)), node.name, len(out))
    return out
