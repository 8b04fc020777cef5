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

Every node, composite or leaf, is a dataclass whose fields (its
constructor parameters: operands, weights, k, stage arguments) are its
identity, so structural equality (==) compares node names and fields all
the way down. `then` is flattened: its spine compares as a sequence with
identity stages dropped, so it is associative under == and identities are
neutral. Two separately constructed but identical pipelines compare equal;
this is the basis of shared-prefix detection in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .errors import PipelineError, TypeMismatch, check_positive
from .frame import Frame, SemType, assign_ranks, rank_ordered, validate


class _Terminal:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Terminal"

    def __str__(self) -> str:
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
    """A hashable identity for a parameter value. A transformer, an index
    or a backend is keyed by its own _key()."""
    if hasattr(type(value), "_key"):
        return value._key()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class Transformer:
    """Base for pipeline nodes: a signature plus an apply function.

    Every node, composite or leaf, is a dataclass whose class attributes
    `signature` and `name` say what it is, and whose fields, its constructor
    parameters, are its structural identity: two nodes with the same name
    and equal fields are equal and hash alike, so they are interchangeable
    for prefix sharing. A composite's signature is derived from its operands,
    and `then` compares by its flattened spine, without identity stages.
    A field holding a transformer, an index or a backend compares by that
    value's own _key(): its structure, its content fingerprint, or its
    descriptor and settings. Fields must therefore capture everything that
    affects the output; checks, defaults and derived state belong in
    __post_init__, so a default left out equals the same value given.
    FnTransformer, which wraps a function, is keyed by its name and params
    instead. Leaves override :meth:`apply`; state must be read-only after
    construction so concurrent applies are safe.
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

    # -- structural identity ---------------------------------------------

    def _key(self) -> tuple:
        return ("leaf", self.name, tuple(
            (f.name, _freeze(getattr(self, f.name))) for f in fields(self)
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transformer):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{self.name}[{self.signature}]"


class FnTransformer(Transformer):
    """Leaf transformer wrapping a plain function; handy for custom stages
    and test mocks."""

    def __init__(self, signature, name, fn: Callable[[Frame], Frame], params=()):
        _check_family(signature)
        self.signature = signature
        self.name = name
        self.params = tuple((k, _freeze(v)) for k, v in params)
        self._fn = fn

    def apply(self, frame: Frame) -> Frame:
        return self._fn(frame)

    def _key(self) -> tuple:
        return ("leaf", self.name, self.params)


def identity(semtype: SemType) -> FnTransformer:
    """Pass-through transformer at the given type."""
    return FnTransformer(
        Signature(semtype, semtype),
        "identity",
        lambda f: f,
        params=(("type", semtype.value),),
    )


# -- composite nodes -------------------------------------------------------
#
# Composite constructors do not type-check, so ill-typed trees can be built
# and inspected; the public helpers below (then, combine_sum, ...) check
# eagerly, and run() always re-checks.


class _Composite(Transformer):
    @property
    def signature(self) -> Signature:
        return type_check(self)

    def _key(self) -> tuple:
        # led by the node's name, so never equal to a ("leaf", ...) key
        return (self.name, *(_freeze(getattr(self, f.name)) for f in fields(self)))


@dataclass(eq=False, repr=False)
class Then(_Composite):
    left: Transformer
    right: Transformer

    name = "then"

    def _key(self) -> tuple:
        # Flattening the spine makes `then` associative under ==, and
        # dropping identity components makes them neutral: p >> identity(T)
        # equals p.
        parts = [c._key() for c in components(self)]
        kept = [k for k in parts if not (k[0] == "leaf" and k[1] == "identity")]
        if not kept:
            kept = parts[:1]
        if len(kept) == 1:
            return kept[0]
        return ("then", tuple(kept))


@dataclass(eq=False, repr=False)
class CombineSum(_Composite):
    left: Transformer
    right: Transformer
    weight_left: float = 1.0
    weight_right: float = 1.0

    name = "combine_sum"

    def __post_init__(self) -> None:
        self.weight_left = float(self.weight_left)
        self.weight_right = float(self.weight_right)


@dataclass(eq=False, repr=False)
class SetUnion(_Composite):
    left: Transformer
    right: Transformer

    name = "set_union"


@dataclass(eq=False, repr=False)
class RankCutoff(_Composite):
    child: Transformer
    k: int

    name = "rank_cutoff"


def components(p: Transformer) -> list[Transformer]:
    """Flatten the top-level `then` spine of a pipeline into a component
    sequence; every non-Then node (leaves included) is one component."""
    if isinstance(p, Then):
        return components(p.left) + components(p.right)
    return [p]


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
    """Keep only results ranked below k for each query."""
    check_positive(k)
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
    if isinstance(node, Then):
        ls = _check(node.left, path + ("then.left",))
        rs = _check(node.right, path + ("then.right",))
        if ls.output is TERMINAL or ls.output is not rs.input:
            raise TypeMismatch(rs.input, ls.output, _path_str(path + ("then",)))
        return Signature(ls.input, rs.output)
    if isinstance(node, (CombineSum, SetUnion)):
        kind = node.name
        ls = _check(node.left, path + (f"{kind}.left",))
        rs = _check(node.right, path + (f"{kind}.right",))
        if ls.output is not SemType.R:
            raise TypeMismatch(SemType.R, ls.output, _path_str(path + (f"{kind}.left",)))
        if rs.output is not SemType.R:
            raise TypeMismatch(SemType.R, rs.output, _path_str(path + (f"{kind}.right",)))
        if ls.input is not rs.input:
            raise TypeMismatch(ls.input, rs.input, _path_str(path + (f"{kind}.right",)))
        return Signature(ls.input, SemType.R)
    if isinstance(node, RankCutoff):
        cs = _check(node.child, path + ("rank_cutoff.child",))
        if cs.output is not SemType.R:
            raise TypeMismatch(
                SemType.R, cs.output, _path_str(path + ("rank_cutoff.child",))
            )
        return cs
    return node.signature


# -- execution ---------------------------------------------------------------

TraceFn = Callable[[str, str, int], None]


def run(p: Transformer, frame: Frame, trace: TraceFn | None = None) -> Frame:
    """Type-check, validate the input and evaluate the tree. Each leaf is
    invoked exactly once per position per run, and its output is validated
    where it is produced, under the leaf's path; combinator outputs are built
    from those validated frames and are not checked again, so every frame is
    validated once.

    `trace`, when given, is called as trace(path, node_name, out_row_count)
    after every node finishes.
    """
    sig = type_check(p)
    validate(frame, sig.input, allow_unscored_r=True)
    out = _eval(p, frame, (), trace)
    if sig.output is TERMINAL and len(out) != 0:
        raise PipelineError("<root>", ValueError("terminal output must be empty"))
    return out


def _eval(
    node: Transformer,
    frame: Frame,
    path: tuple[str, ...],
    trace: TraceFn | None,
) -> Frame:
    if isinstance(node, Then):
        mid = _eval(node.left, frame, path + ("then.left",), trace)
        out = _eval(node.right, mid, path + ("then.right",), trace)
    elif isinstance(node, CombineSum):
        a = _eval(node.left, frame, path + ("combine_sum.left",), trace)
        b = _eval(node.right, frame, path + ("combine_sum.right",), trace)
        out = _merge_sum(a, b, node.weight_left, node.weight_right)
    elif isinstance(node, SetUnion):
        a = _eval(node.left, frame, path + ("set_union.left",), trace)
        b = _eval(node.right, frame, path + ("set_union.right",), trace)
        out = _merge_union(a, b)
    elif isinstance(node, RankCutoff):
        child = _eval(node.child, frame, path + ("rank_cutoff.child",), trace)
        out = _cutoff(child, node.k)
    else:
        try:
            out = node.apply(frame)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(_path_str(path + (node.name,)), exc) from exc
        sig = node.signature
        if sig.output is TERMINAL:
            if out is None:
                out = Frame(None, ())
        else:
            try:
                validate(out, sig.output, allow_unscored_r=True)
            except Exception as exc:
                raise PipelineError(_path_str(path + (node.name,)), exc) from exc
    if trace is not None:
        trace(_path_str(path + (node.name,)), node.name, len(out))
    return out


def _queries_by_qid(a: Frame, b: Frame) -> dict[str, str]:
    # query text is functionally dependent on qid, so merges can carry it
    # through for downstream context builders; min() of observed values
    # keeps the merge commutative even if the sides disagree
    queries: dict[str, str] = {}
    for frame in (a, b):
        for row in frame.rows:
            if "query" in row:
                q = row["query"]
                if row["qid"] not in queries or q < queries[row["qid"]]:
                    queries[row["qid"]] = q
    return queries


def _merge_sum(a: Frame, b: Frame, wa: float, wb: float) -> Frame:
    # outer join on (qid, docno); absent side contributes 0. Guaranteed
    # output columns are qid/docno/score/rank; per-qid query text is carried
    # through when the inputs have it, other extras are dropped (merging
    # per-document extras from two sides is ill-defined).
    scores_a: dict[tuple[str, str], float] = {}
    scores_b: dict[tuple[str, str], float] = {}
    order: list[tuple[str, str]] = []
    seen = set()
    for frame, store in ((a, scores_a), (b, scores_b)):
        for row in frame.rows:
            key = (row["qid"], row["docno"])
            store[key] = float(row.get("score", 0.0))
            if key not in seen:
                seen.add(key)
                order.append(key)
    queries = _queries_by_qid(a, b)
    rows = []
    for qid, docno in order:
        left = wa * scores_a[(qid, docno)] if (qid, docno) in scores_a else 0.0
        right = wb * scores_b[(qid, docno)] if (qid, docno) in scores_b else 0.0
        row = {"qid": qid, "docno": docno, "score": left + right}
        if qid in queries:
            row["query"] = queries[qid]
        rows.append(row)
    return assign_ranks(rows)


def _merge_union(a: Frame, b: Frame) -> Frame:
    # a's rows in rank order, then b's rows not already seen, in b's rank
    # order. Scores and ranks are dropped: a union of two differently
    # calibrated score lists has no meaningful single score.
    queries = _queries_by_qid(a, b)
    seen: set[tuple[str, str]] = set()
    rows = []
    for frame in (a, b):
        for row in rank_ordered(frame.rows):
            key = (row["qid"], row["docno"])
            if key in seen:
                continue
            seen.add(key)
            out = {"qid": row["qid"], "docno": row["docno"]}
            if row["qid"] in queries:
                out["query"] = queries[row["qid"]]
            rows.append(out)
    return Frame(SemType.R, rows)


def _cutoff(frame: Frame, k: int) -> Frame:
    if any("rank" in r for r in frame.rows):
        rows = [r for r in frame.rows if r["rank"] < k]
    else:
        kept: dict[str, int] = {}
        rows = []
        for r in frame.rows:
            n = kept.get(r["qid"], 0)
            if n < k:
                kept[r["qid"]] = n + 1
                rows.append(r)
    return Frame(SemType.R, rows)
