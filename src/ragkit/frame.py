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
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping, Sequence

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

KEY_COLUMNS: dict[SemType, tuple[str, ...]] = {
    SemType.Q: ("qid",),
    SemType.D: ("docno",),
    SemType.R: ("qid", "docno"),
    SemType.QC: ("qid",),
    SemType.A: ("qid",),
    SemType.GA: ("qid",),
    SemType.RA: ("qid", "docno"),
}


def _kind_ok(value, kind: str) -> bool:
    if kind == "text":
        return isinstance(value, str)
    if kind == "real":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "text_list":
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    raise ValueError(f"unknown column kind {kind!r}")


class Frame:
    """Immutable ordered collection of rows under a SemType tag.

    Rows are defensively copied on construction; treat the frame and its
    rows as read-only values. Construction does not validate -- call
    :func:`validate`. Pipeline execution validates its input frame and each
    leaf's output once; frames built by the combinators from those are not
    re-checked.
    """

    __slots__ = ("semtype", "_rows")

    def __init__(self, semtype: SemType | None, rows: Iterable[Mapping]) -> None:
        self.semtype = semtype
        self._rows: tuple[dict, ...] = tuple(dict(r) for r in rows)

    @property
    def rows(self) -> tuple[dict, ...]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.semtype == other.semtype and self._rows == other._rows

    __hash__ = None  # unhashable: rows are dicts

    def __repr__(self) -> str:
        tag = self.semtype.value if self.semtype else "Terminal"
        return f"Frame({tag}, {len(self._rows)} rows)"

    def column(self, name: str) -> list:
        return [r[name] for r in self._rows]


def terminal_frame() -> Frame:
    """The empty frame produced by terminal (indexing) transformers."""
    return Frame(None, ())


def validate(frame: Frame, expected: SemType, allow_unscored_r: bool = False) -> Frame:
    """Check all schema and key invariants of `frame` against `expected`.

    Raises the first violation found (MissingColumn, KindMismatch,
    DuplicateKey, RankViolation). Returns the frame for chaining.

    `allow_unscored_r` admits R frames whose rows carry neither score nor
    rank (candidate sets produced by the set-union operator); pipeline
    execution validates with this enabled, direct calls default to strict.
    """
    if frame.semtype is not expected:
        raise KindMismatch(
            f"frame tagged {frame.semtype} where {expected} expected"
        )

    unscored = (
        allow_unscored_r
        and expected is SemType.R
        and not any(("score" in r or "rank" in r) for r in frame.rows)
    )
    required = REQUIRED[expected]
    if unscored:
        required = tuple((c, k) for c, k in required if c not in ("score", "rank"))

    for row in frame.rows:
        for col, kind in required:
            if col not in row:
                raise MissingColumn(col, f"in {expected} row {_row_brief(row)}")
            if row[col] is None or not _kind_ok(row[col], kind):
                raise KindMismatch(
                    f"column {col!r} of {expected} row must be {kind}, "
                    f"got {row[col]!r}"
                )
        if expected is SemType.R and "rank" in row and row["rank"] < 0:
            raise KindMismatch(f"rank must be >= 0, got {row['rank']!r}")

    key_cols = KEY_COLUMNS[expected]
    seen = set()
    for row in frame.rows:
        key = tuple(row[c] for c in key_cols)
        if key in seen:
            raise DuplicateKey(key if len(key) > 1 else key[0], f"in {expected} frame")
        seen.add(key)

    if expected is SemType.R and not unscored:
        _check_ranks(frame)
    return frame


def _check_ranks(frame: Frame) -> None:
    # per qid: ranks must be exactly {0..n-1} with score non-increasing in rank
    by_qid: dict[str, list[dict]] = {}
    for row in frame.rows:
        by_qid.setdefault(row["qid"], []).append(row)
    for qid, rows in by_qid.items():
        ranks = sorted(r["rank"] for r in rows)
        if ranks != list(range(len(rows))):
            raise RankViolation(qid, f"ranks {ranks} are not 0..{len(rows) - 1}")
        ordered = sorted(rows, key=lambda r: r["rank"])
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

    Rows need qid, docno and a numeric score; any existing rank column is
    recomputed. Total order: qid ascending, then score descending, then
    docno ascending (the tie rule). The output depends only on the multiset
    of rows, never on their input order, and the operation is idempotent.
    """
    raw = rows.rows if isinstance(rows, Frame) else tuple(rows)
    for row in raw:
        for col in ("qid", "docno", "score"):
            if col not in row:
                raise MissingColumn(col, "assign_ranks input")
        if not _kind_ok(row["score"], "real"):
            raise KindMismatch(f"score must be numeric, got {row['score']!r}")

    seen = set()
    for row in raw:
        key = (row["qid"], row["docno"])
        if key in seen:
            raise DuplicateKey(key, "assign_ranks input")
        seen.add(key)

    ordered = sorted(raw, key=lambda r: (r["qid"], -r["score"], r["docno"]))
    out = []
    rank = 0
    prev_qid = None
    for row in ordered:
        if row["qid"] != prev_qid:
            rank = 0
            prev_qid = row["qid"]
        new = dict(row)
        new["rank"] = rank
        rank += 1
        out.append(new)
    return Frame(SemType.R, out)


def rank_ordered(rows: Sequence[Mapping]) -> list:
    """Rows sorted by (qid, rank) when they carry ranks; in their given order
    otherwise (candidate sets from set union)."""
    if any("rank" in r for r in rows):
        return sorted(rows, key=lambda r: (r["qid"], r["rank"]))
    return list(rows)


def concat(frames: Sequence[Frame], semtype: SemType) -> Frame:
    """Row-wise concatenation of same-typed frames; validates the result."""
    rows: list[dict] = []
    for f in frames:
        if f.semtype is not semtype:
            raise KindMismatch(f"cannot concat {f.semtype} frame into {semtype}")
        rows.extend(f.rows)
    return validate(Frame(semtype, rows), semtype, allow_unscored_r=True)
