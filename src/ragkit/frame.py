"""Typed relational frames: the value that flows between pipeline stages.

A Frame is an ordered, immutable collection of rows (plain dicts) tagged with
one of seven relation types. Required columns and primary keys per tag:

    Q   qid, query                      keyed by qid
    D   docno, text                     keyed by docno
    R   qid, docno, score, rank         keyed by (qid, docno)
    Qc  qid, query, qcontext            keyed by qid
    A   qid, qanswer                    keyed by qid
    GA  qid, ganswer (list of str)      keyed by qid
    RA  qid, docno, label               keyed by (qid, docno)

Extra columns are always permitted and survive operations that do not
redefine them. qid and docno are opaque strings compared bytewise.

A retriever's R frame starts as one ranked segment per query (columns, not
dicts) and builds its row dicts when something first reads them; `validate`
and `run_lines` read the segments directly. `validate` only checks a frame
and remembers which type passed; readers of R rows get them per query, in
rank order, from `by_query`. Set union's candidate rows come laid out per
query too: left's rows, then right's unseen ones.
"""

from __future__ import annotations

import enum
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DuplicateKey, KindMismatch, MissingColumn, RankViolation


class SemType(enum.Enum):
    Q = "Q"
    D = "D"
    R = "R"
    QC = "Qc"
    A = "A"
    GA = "GA"
    RA = "RA"

    def __str__(self) -> str:
        return self.value


# column kinds: "text", "real", "int", "text_list"
REQUIRED: dict[SemType, tuple[tuple[str, str], ...]] = {
    SemType.Q: (("qid", "text"), ("query", "text")),
    SemType.D: (("docno", "text"), ("text", "text")),
    SemType.R: (("qid", "text"), ("docno", "text"), ("score", "real"), ("rank", "int")),
    SemType.QC: (("qid", "text"), ("query", "text"), ("qcontext", "text")),
    SemType.A: (("qid", "text"), ("qanswer", "text")),
    SemType.GA: (("qid", "text"), ("ganswer", "text_list")),
    SemType.RA: (("qid", "text"), ("docno", "text"), ("label", "int")),
}

# the primary key of each type: its required qid and docno columns
KEY_COLUMNS: dict[SemType, tuple[str, ...]] = {
    t: tuple(col for col, _ in cols if col in ("qid", "docno")) for t, cols in REQUIRED.items()
}


# per kind, the types that pass without the isinstance checks of _kind_ok
_EXACT: dict[str, tuple[type, ...]] = {
    "text": (str,),
    "real": (float, int),
    "int": (int,),
    "text_list": (),
}

# per tag, (column, kind, exact types) for every required column, in order
_CHECKS: dict[SemType, tuple[tuple[str, str, tuple[type, ...]], ...]] = {
    t: tuple((col, kind, _EXACT[kind]) for col, kind in cols) for t, cols in REQUIRED.items()
}
_UNSCORED_R = tuple(c for c in _CHECKS[SemType.R] if c[0] not in ("score", "rank"))


def _kind_ok(value, kind: str) -> bool:
    if kind == "text":
        return isinstance(value, str)
    if kind == "real":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    # "text_list": kinds come only from REQUIRED, so there is no other
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


class _Segment:
    """One query's ranked results as columns: `docnos` (str), `scores`
    (float64, non-increasing) and `fields`, a (name, values) pair per
    included stored field, hold one entry per result, in rank order; the
    rank is the position. The R rows it stands for are built by `rows`."""

    __slots__ = ("qid", "query", "docnos", "scores", "fields")

    def __init__(self, qid: str, query: str, docnos: list[str], scores: np.ndarray,
                 fields: tuple[tuple[str, list], ...] = ()) -> None:
        self.qid = qid
        self.query = query
        self.docnos = docnos
        self.scores = scores
        self.fields = fields

    def rows(self) -> list[dict]:
        qid, query = self.qid, self.query
        rows = [
            {"qid": qid, "docno": docno, "score": score, "rank": rank, "query": query}
            for rank, (docno, score) in enumerate(zip(self.docnos, self.scores.tolist()))
        ]
        for name, values in self.fields:
            for row, value in zip(rows, values):
                row[name] = value
        return rows


class _Segmented:
    """The rows of a frame that has not built them yet: one `_Segment` per
    query. It stands in a frame's `_rows` until the first read replaces it."""

    __slots__ = ("segments", "n")

    def __init__(self, segments: tuple[_Segment, ...]) -> None:
        self.segments = segments
        self.n = sum(len(s.docnos) for s in segments)

    def __len__(self) -> int:
        return self.n

    def rows(self) -> tuple[dict, ...]:
        return tuple(chain.from_iterable(s.rows() for s in self.segments))


class Frame:
    """Immutable ordered collection of rows under a SemType tag.

    Rows are defensively copied on construction; treat the frame and its
    rows as read-only values. Construction does not validate -- call
    :func:`validate`. Pipeline execution validates its input frame and each
    leaf's output once; frames built by the combinators from those are not
    re-checked.

    A frame remembers the type whose strict check it has passed, so
    validating it again for that type costs no per-row work. Changing a row
    in place after construction is unsupported: a repeat check will not see
    the change.

    A retriever's R frame holds one ranked segment per query instead of
    rows: `len`, `validate` and `run_lines` read the segments, and the row
    dicts are built, once, when something first reads `rows` (iteration,
    `==`, `column` and every stage that reads rows). They equal the rows
    the retriever would have built, key order included, and from then on
    they are the frame's only form. Two threads that read a fresh frame's
    rows at once may each build them; the frame keeps one of the two equal
    tuples.
    """

    __slots__ = ("semtype", "_rows", "_checked")

    def __init__(self, semtype: SemType | None, rows: Iterable[Mapping]) -> None:
        self.semtype = semtype
        self._rows: tuple[dict, ...] | _Segmented = tuple(dict(r) for r in rows)
        # the type whose strict check the frame has passed
        self._checked: SemType | None = None

    @classmethod
    def _owning(cls, semtype: SemType | None, rows: Iterable[dict]) -> Frame:
        """A frame over `rows` without the defensive copy, for producers
        that build fresh dicts and keep no reference to them."""
        frame = cls.__new__(cls)
        frame.semtype = semtype
        frame._rows = tuple(rows)
        frame._checked = None
        return frame

    @classmethod
    def _ranked(cls, segments: Iterable[_Segment]) -> Frame:
        """An R frame over one ranked segment per query, in the given
        order; its row dicts are built when first read."""
        frame = cls._owning(SemType.R, ())
        frame._rows = _Segmented(tuple(segments))
        return frame

    @property
    def rows(self) -> tuple[dict, ...]:
        rows = self._rows
        if type(rows) is _Segmented:
            rows = self._rows = rows.rows()
        return rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.semtype == other.semtype and self.rows == other.rows

    __hash__ = None  # unhashable: rows are dicts

    def __repr__(self) -> str:
        tag = self.semtype.value if self.semtype else "Terminal"
        return f"Frame({tag}, {len(self._rows)} rows)"

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]


def terminal_frame() -> Frame:
    """The empty frame produced by terminal (indexing) transformers."""
    return Frame(None, ())


def validate(frame: Frame, expected: SemType, allow_unscored_r: bool = False) -> Frame:
    """Check all schema and key invariants of `frame` against `expected`.

    Raises the first violation found (MissingColumn, KindMismatch,
    DuplicateKey, RankViolation). Returns the frame for chaining. Column and
    kind errors come first, row by row, then duplicate keys, then ranks.

    One pass over the rows checks each required column against the tag's
    `_CHECKS` entry: a value of an exact type (`str` for text, `float` or
    `int` for real, `int` for int) passes at once, anything else goes through
    `_kind_ok`, which still refuses None and bool. An R row's rank must be
    non-negative and its score not NaN. The R rank invariant is then checked
    per qid by `_check_ranks`, whatever order the rows come in.

    A frame remembers the type whose strict check it passed: validating it
    again for that type returns at once, after the tag check. Rows changed
    in place after construction are therefore not checked again; doing so
    is unsupported. Nothing else is recorded: `by_query` puts R rows in
    order when they are read.

    A retriever's frame that has not built its rows yet is checked by
    `_check_segments` with a few whole-column operations per ranked segment
    instead. When those vouch for it, the row pass would pass too; when
    they cannot, the rows are built and go through the pass above, which
    raises what it always raised.

    `allow_unscored_r` admits R frames whose rows carry neither score nor
    rank (candidate sets produced by the set-union operator); pipeline
    execution validates with this enabled, direct calls default to strict.
    That lenient pass is not remembered, so a later strict check runs in
    full.
    """
    if frame.semtype is not expected:
        raise KindMismatch(
            f"frame tagged {frame.semtype} where {expected} expected"
        )
    if frame._checked is expected:
        return frame
    if type(frame._rows) is _Segmented and len(frame) and _check_segments(frame._rows.segments):
        frame._checked = expected
        return frame

    rows = frame.rows
    checks = _CHECKS[expected]
    ranked = expected is SemType.R
    lenient = ranked and allow_unscored_r and not any(("score" in r or "rank" in r) for r in rows)
    if lenient:
        checks, ranked = _UNSCORED_R, False

    for row in rows:
        for col, kind, exact in checks:
            try:
                value = row[col]
            except KeyError:
                raise MissingColumn(col, f"in {expected} row {_row_brief(row)}") from None
            if type(value) not in exact and not _kind_ok(value, kind):
                raise KindMismatch(
                    f"column {col!r} of {expected} row must be {kind}, got {value!r}"
                )
        if ranked:
            rank = row["rank"]
            score = row["score"]
            if rank < 0:
                raise KindMismatch(f"rank must be >= 0, got {rank!r}")
            if score != score:
                raise KindMismatch(f"score must be numeric, got {score!r}")

    _check_unique(list(map(itemgetter(*KEY_COLUMNS[expected]), rows)), f"in {expected} frame")

    if ranked:
        _check_ranks(frame)
    if not lenient:
        frame._checked = expected
    return frame


# the R columns of a segment's rows that an included field must not replace
_SEGMENT_COLUMNS = frozenset(col for col, _ in REQUIRED[SemType.R])
_STR_ONLY = {str}


def _check_segments(segments: Sequence[_Segment]) -> bool:
    """Whether whole-column checks vouch that the strict R check of the
    rows of `segments` would pass: qid and docnos of exact type `str`,
    float64 scores without NaN that never increase, docnos unique within a
    segment, qids unique across the non-empty segments, and no included
    field that replaces an R column. False means the rows must be checked
    one by one."""
    qids = []
    for seg in segments:
        docnos, scores = seg.docnos, seg.scores
        if not docnos:
            continue  # no rows, so its qid is in none
        if (type(seg.qid) is not str
                or set(map(type, docnos)) != _STR_ONLY
                or len(set(docnos)) != len(docnos)
                or scores.dtype != np.float64
                # a NaN fails every comparison: one at rank 0 trips the first
                # test, one further down the second
                or scores[0] != scores[0] or not (scores[1:] <= scores[:-1]).all()
                or any(name in _SEGMENT_COLUMNS for name, _ in seg.fields)):
            return False
        qids.append(seg.qid)
    return len(set(qids)) == len(qids)


def _check_unique(keys: list, where: str) -> None:
    """DuplicateKey for the first key that repeats; one set() when none does."""
    if len(set(keys)) != len(keys):
        seen = set()
        for key in keys:
            if key in seen:
                raise DuplicateKey(key, where)
            seen.add(key)


def _check_ranks(frame: Frame) -> None:
    # per qid: ranks must be exactly {0..n-1} with score non-increasing in rank
    by_qid: dict[str, list[dict]] = {}
    for row in frame.rows:
        by_qid.setdefault(row["qid"], []).append(row)
    for qid, rows in by_qid.items():
        ordered = sorted(rows, key=itemgetter("rank"))
        ranks = [r["rank"] for r in ordered]
        if ranks != list(range(len(rows))):
            raise RankViolation(qid, f"ranks {ranks} are not 0..{len(rows) - 1}")
        for prev, cur in zip(ordered, ordered[1:]):
            if cur["score"] > prev["score"]:
                raise RankViolation(
                    qid,
                    f"score increases from rank {prev['rank']} to {cur['rank']}",
                )


def _row_brief(row: Mapping) -> str:
    keys = list(row)[:4]
    return "{" + ", ".join(f"{k}={row[k]!r}" for k in keys) + ("...}" if len(row) > 4 else "}")


def assign_ranks(rows: Frame | Iterable[Mapping]) -> Frame:
    """Sort scored rows and assign contiguous ranks, returning an R frame.

    Rows need qid, docno and a numeric score that is not NaN; any existing
    rank column is recomputed. Total order: qid ascending, then score
    descending, then docno ascending (the tie rule). The output depends only
    on the multiset of rows, never on their input order, and the operation
    is idempotent.
    """
    raw = rows.rows if isinstance(rows, Frame) else tuple(rows)
    real = _EXACT["real"]
    for row in raw:
        for col in ("qid", "docno", "score"):
            if col not in row:
                raise MissingColumn(col, "assign_ranks input")
        score = row["score"]
        if (type(score) not in real and not _kind_ok(score, "real")) or score != score:
            raise KindMismatch(f"score must be numeric, got {score!r}")

    _check_unique(list(map(itemgetter("qid", "docno"), raw)), "assign_ranks input")

    ordered = sorted(raw, key=lambda r: (r["qid"], -r["score"], r["docno"]))
    return Frame._owning(SemType.R, [
        {**row, "rank": rank}
        for _, group in groupby(ordered, itemgetter("qid"))
        for rank, row in enumerate(group)
    ])


def by_query(frame: Frame) -> list[tuple[str, list[dict]]]:
    """(qid, rows) per qid of an R frame, qids ascending: ranked rows in
    rank order, a candidate set's (rows without rank) in their given order.
    Cutoff, set union, context building, the IRCoT fold and run files read
    R rows only through this, so a stage that emits its rows in any other
    order is read as if it had sorted them."""
    rows = frame.rows
    key = itemgetter("qid", "rank") if any("rank" in r for r in rows) else itemgetter("qid")
    ordered = sorted(rows, key=key)
    return [(qid, list(group)) for qid, group in groupby(ordered, itemgetter("qid"))]


def _ranked_columns(frame: Frame) -> list[tuple[str, list[str], list]]:
    """(qid, docnos, scores) per qid of a strictly checked R frame, qids
    ascending and each qid's entries in rank order, so that the rank is the
    position. A frame that has not built its rows gives its non-empty
    segments' columns without building them."""
    rows = frame._rows
    if type(rows) is _Segmented:
        segments = sorted((s for s in rows.segments if s.docnos), key=attrgetter("qid"))
        return [(s.qid, s.docnos, s.scores.tolist()) for s in segments]
    return [(qid, list(map(itemgetter("docno"), group)), list(map(itemgetter("score"), group)))
            for qid, group in by_query(frame)]


def concat(frames: Sequence[Frame], semtype: SemType) -> Frame:
    """Row-wise concatenation of same-typed frames; validates the result."""
    rows: list[dict] = []
    for f in frames:
        if f.semtype is not semtype:
            raise KindMismatch(f"cannot concat {f.semtype} frame into {semtype}")
        rows.extend(f.rows)
    return validate(Frame(semtype, rows), semtype, allow_unscored_r=True)
