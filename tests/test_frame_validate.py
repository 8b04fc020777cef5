"""`validate` against an oracle: the two-pass validator it replaced, kept
here (with the `_kind_ok` it called) as `bm25_score` is kept for the
retriever, changed only by the rule added since that a scored R row's score
must not be NaN. On any frame both must accept, or both must raise the same
exception class with the same message."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ragkit.frame
from ragkit.datasets import run_lines
from ragkit.errors import DuplicateKey, KindMismatch, MissingColumn, RankViolation
from ragkit.frame import (
    KEY_COLUMNS,
    REQUIRED,
    Frame,
    SemType,
    _row_brief,
    assign_ranks,
    validate,
)
from ragkit.index import BM25Retriever, index_corpus
from ragkit.transformer import run

# -- the oracle ----------------------------------------------------------------


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


def oracle_validate(frame: Frame, expected: SemType, allow_unscored_r: bool = False) -> Frame:
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
        if expected is SemType.R and "score" in row and row["score"] != row["score"]:
            raise KindMismatch(f"score must be numeric, got {row['score']!r}")

    key_cols = KEY_COLUMNS[expected]
    seen = set()
    for row in frame.rows:
        key = tuple(row[c] for c in key_cols)
        if key in seen:
            raise DuplicateKey(key if len(key) > 1 else key[0], f"in {expected} frame")
        seen.add(key)

    if expected is SemType.R and not unscored:
        oracle_check_ranks(frame)
    return frame


def oracle_check_ranks(frame: Frame) -> None:
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


def _outcome(check, frame, expected, allow_unscored_r):
    try:
        assert check(frame, expected, allow_unscored_r=allow_unscored_r) is frame
    except (MissingColumn, KindMismatch, DuplicateKey, RankViolation) as exc:
        return type(exc), str(exc)
    return None


# -- random frames with injected violations ---------------------------------------

_TEXT = st.sampled_from(["a", "b", "c", "q1", "d1", "é"])
_QIDS = st.sampled_from(["q1", "q2", "q3"])
_VALUES = {
    "text": _TEXT,
    "real": st.one_of(st.floats(-3, 3), st.integers(-3, 3), st.just(float("nan"))),
    "int": st.integers(0, 3),
    "text_list": st.lists(_TEXT, max_size=2),
}

VIOLATIONS = (
    "missing column", "None", "bool", "np.int64 rank", "np.float64 score",
    "non-str ganswer item", "negative rank", "duplicate key", "rank gap",
    "rising score", "moved to another qid", "partly scored",
)
RANK_VIOLATIONS = ("rank gap", "rising score", "moved to another qid")


def _inject(draw, rows, name):
    """Edit one drawn row in place so that it carries violation `name`;
    rows without the column it needs are left alone."""
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if name in ("missing column", "None", "bool") and row:
        col = draw(st.sampled_from(sorted(row)))
        if name == "missing column":
            del row[col]
        else:
            row[col] = None if name == "None" else True
    elif name == "np.int64 rank" and row.get("rank") is not None:
        row["rank"] = np.int64(row["rank"])
    elif name == "np.float64 score" and row.get("score") is not None:
        row["score"] = np.float64(row["score"])
    elif name == "non-str ganswer item" and isinstance(row.get("ganswer"), list):
        row["ganswer"] = [*row["ganswer"], 7]
    elif name == "negative rank" and "rank" in row:
        row["rank"] = draw(st.integers(-2, -1))
    elif name == "duplicate key":
        other = rows[draw(st.integers(0, len(rows) - 1))]
        row.update({c: other[c] for c in ("qid", "docno") if c in other})
    elif name == "rank gap" and row.get("rank") is not None:
        row["rank"] += draw(st.integers(1, 2))
    elif name == "rising score" and "score" in row:
        row["score"] = 4.0  # above every drawn score
    elif name == "moved to another qid":
        row["qid"] = draw(_QIDS)
    elif name == "partly scored":
        row.pop("score", None)
        row.pop("rank", None)


@st.composite
def _cases(draw):
    # mostly R frames under their own tag: they have the most to check
    semtype = draw(st.one_of(st.just(SemType.R), st.just(SemType.R), st.sampled_from(SemType)))
    expected = draw(st.one_of(st.just(semtype), st.just(semtype), st.sampled_from(SemType)))
    if semtype is SemType.R:
        # grouped by qid, ranks 0, 1, 2, ... and scores non-increasing,
        # as the retriever emits them
        rows = []
        for qid in draw(st.lists(_QIDS, min_size=1, max_size=3, unique=True)):
            scores = sorted(draw(st.lists(_VALUES["real"], min_size=1, max_size=4)), reverse=True)
            rows += [{"qid": qid, "docno": f"d{len(rows) + rank}", "score": s, "rank": rank}
                     for rank, s in enumerate(scores)]
        layout = draw(st.one_of(st.just("grouped"),
                                st.sampled_from(["grouped", "interleaved", "shuffled"])))
        if layout == "interleaved":
            rows = sorted(rows, key=lambda r: (r["rank"], r["qid"]))
        elif layout == "shuffled":
            rows = draw(st.permutations(rows))
        if not draw(st.integers(0, 3)):  # an unscored candidate set
            for row in rows:
                del row["score"], row["rank"]
    else:
        rows = [{col: draw(_VALUES[kind]) for col, kind in REQUIRED[semtype]}
                for _ in range(draw(st.integers(0, 8)))]
    for row in rows:
        if draw(st.booleans()):
            row["extra"] = draw(_TEXT)
    # half of the drawn violations break the rank invariant: most others
    # raise before ranks are checked
    names = st.one_of(st.sampled_from(VIOLATIONS), st.sampled_from(RANK_VIOLATIONS))
    violations = draw(st.lists(names, max_size=3)) if rows else []
    for name in violations:
        _inject(draw, rows, name)
    return Frame(semtype, rows), expected, draw(st.booleans())


@settings(max_examples=1000, deadline=None)
@given(_cases())
def test_validate_agrees_with_the_oracle(case):
    frame, expected, allow_unscored_r = case
    assert _outcome(validate, frame, expected, allow_unscored_r) == \
        _outcome(oracle_validate, frame, expected, allow_unscored_r)


# -- which rank check carries which layout ----------------------------------------


def _no_sorting_check(monkeypatch):
    def refuse(frame):
        raise AssertionError("rank check fell back to sorting")

    monkeypatch.setattr(ragkit.frame, "_check_ranks", refuse)


def test_retriever_output_is_rank_checked_in_the_one_pass(monkeypatch):
    rng = random.Random(3)
    vocab = ["ant", "bee", "cat", "dog", "eel"]
    idx = index_corpus([{"docno": f"d{i:04d}", "text": " ".join(rng.choices(vocab, k=6))}
                        for i in range(1500)])
    q = Frame(SemType.Q, [{"qid": "q2", "query": "ant bee"}, {"qid": "q1", "query": "cat"}])
    _no_sorting_check(monkeypatch)
    out = run(BM25Retriever(idx, num_results=1000), q)
    lines = run_lines(out)
    assert len(out) == len(lines) == 2000


def test_other_layouts_fall_back_to_the_sorting_check(monkeypatch):
    rows = assign_ranks([{"qid": q, "docno": f"d{i}", "score": float(i % 3)}
                         for q in ("q1", "q2") for i in range(6)]).rows
    calls = []
    check = ragkit.frame._check_ranks

    def counted(frame):
        calls.append(frame)
        check(frame)

    monkeypatch.setattr(ragkit.frame, "_check_ranks", counted)
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    interleaved = sorted(rows, key=lambda r: (r["rank"], r["qid"]))
    for layout in (shuffled, interleaved):
        validate(Frame(SemType.R, layout), SemType.R)
    assert len(calls) == 2


def test_a_qid_that_returns_at_rank_0_is_not_a_new_group():
    rows = [{"qid": qid, "docno": docno, "score": 1.0, "rank": 0}
            for qid, docno in (("q1", "d1"), ("q2", "d2"), ("q1", "d3"))]
    with pytest.raises(RankViolation, match=r"ranks \[0, 0\] are not 0\.\.1"):
        validate(Frame(SemType.R, rows), SemType.R)


# -- a frame remembers the check it passed -------------------------------------


class _NoRows:
    """Stands in for a checked frame's rows: any per-row work fails."""

    def _touched(self, *args):
        raise AssertionError("validate read the rows of a checked frame")

    __iter__ = __len__ = __getitem__ = _touched


@settings(max_examples=500, deadline=None)
@given(_cases(), st.booleans())
def test_validating_twice_agrees_with_the_oracle(case, second_allow):
    frame, expected, allow_unscored_r = case
    for allow in (allow_unscored_r, second_allow):
        assert _outcome(validate, frame, expected, allow) == \
            _outcome(oracle_validate, frame, expected, allow)


@settings(max_examples=300, deadline=None)
@given(_cases(), st.booleans())
def test_a_second_check_does_no_per_row_work(case, allow):
    frame, expected, first_allow = case
    try:
        validate(frame, expected, allow_unscored_r=first_allow)
    except (MissingColumn, KindMismatch, DuplicateKey, RankViolation):
        return
    if _outcome(oracle_validate, frame, expected, False) is not None:
        return  # passed only as an unscored candidate set, which is not remembered
    frame._rows = _NoRows()
    assert validate(frame, expected, allow_unscored_r=allow) is frame


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_a_checked_frame_keeps_its_tag_check(case):
    frame, _, allow_unscored_r = case
    try:
        validate(frame, frame.semtype, allow_unscored_r=allow_unscored_r)
    except (MissingColumn, KindMismatch, DuplicateKey, RankViolation):
        return
    for other in SemType:
        if other is not frame.semtype:
            with pytest.raises(KindMismatch, match=f"tagged {frame.semtype} where {other}"):
                validate(frame, other)


def test_a_lenient_pass_is_not_remembered():
    idx = index_corpus([{"docno": f"d{i}", "text": text}
                        for i, text in enumerate(["ant bee", "bee cat", "cat dog"])])
    q = Frame(SemType.Q, [{"qid": "q1", "query": "bee"}])
    union = run(BM25Retriever(idx) | BM25Retriever(idx, num_results=1), q)
    assert union.rows and all("score" not in r for r in union.rows)
    assert validate(union, SemType.R, allow_unscored_r=True) is union
    with pytest.raises(MissingColumn, match="'score'"):
        validate(union, SemType.R)


# -- a retriever's ranked segments check, count and print as their rows do ------


class _Text(str):
    """A str subclass: text to the row pass, not an exact `str` column."""


SEGMENT_CORRUPTIONS = (
    "nan score", "rising score", "repeated docno", "repeated qid", "non-str docno",
    "non-str qid", "str subclass docno", "int scores", "None score",
    "field replaces docno", "field replaces score", "whitespace docno", "empty docno",
    "whitespace qid",
)


@st.composite
def _segment_payloads(draw):
    """Per query: (qid, query, docnos, scores, fields), as the retriever
    builds them, with empty segments and drawn corruptions; and the names
    of the corruptions drawn."""
    payload = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q2", "q%d", "é"]), max_size=4,
                             unique=True)):
        n = draw(st.integers(0, 4))
        docnos = draw(st.lists(st.sampled_from(["d1", "d2", "d3", "d4", "d5"]),
                               min_size=n, max_size=n, unique=True))
        scores = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n)),
                        reverse=True)
        fields = [("text", [f"t{i}" for i in range(n)])] if draw(st.booleans()) else []
        payload.append([qid, "a query", docnos, np.array(scores, dtype=np.float64), fields])
    names = draw(st.lists(st.sampled_from(SEGMENT_CORRUPTIONS), max_size=2))
    for name in names:
        full = [seg for seg in payload if seg[2]]
        if not full:
            break
        seg = draw(st.sampled_from(full))
        i = draw(st.integers(0, len(seg[2]) - 1))
        if name == "nan score":
            seg[3] = seg[3].astype(np.float64)
            seg[3][i] = float("nan")
        elif name == "rising score" and i and seg[3][i - 1] is not None:
            # after "None score" the score before may be None, with nothing to exceed
            seg[3][i] = seg[3][i - 1] + 1.0 if seg[3][i - 1] < 1e300 else float("inf")
        elif name == "repeated docno" and i:
            seg[2][i] = seg[2][0]
        elif name == "repeated qid":
            payload.append([seg[0], "again", ["d9"], np.array([1.0]), []])
        elif name == "non-str docno":
            seg[2][i] = 7
        elif name == "non-str qid":
            seg[0] = 7
        elif name == "str subclass docno":
            seg[2][i] = _Text(seg[2][i])
        elif name == "int scores":
            seg[3] = np.arange(len(seg[2]))[::-1].copy()
        elif name == "None score":
            seg[3] = seg[3].astype(object)
            seg[3][i] = None
        elif name.startswith("field replaces"):
            column = name.split()[-1]
            seg[4].append((column, ["x"] * len(seg[2])))
        elif name == "whitespace docno":
            seg[2][i] = "d 1"
        elif name == "empty docno":
            seg[2][i] = ""
        elif name == "whitespace qid":
            seg[0] = "q 1"
    return payload, names


def _segmented(payload) -> Frame:
    """A fresh frame over fresh segments of `payload`."""
    return Frame._ranked(
        ragkit.frame._Segment(qid, query, list(docnos), scores.copy(),
                              tuple((name, list(values)) for name, values in fields))
        for qid, query, docnos, scores, fields in payload)


def _lines_or_error(frame):
    try:
        return run_lines(frame, tag="r%s")
    except (MissingColumn, KindMismatch, DuplicateKey, RankViolation, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(_segment_payloads(), st.booleans())
def test_segments_check_count_and_print_as_their_rows(drawn, allow):
    payload, corruptions = drawn
    rows = Frame(SemType.R, _segmented(payload).rows)
    segmented = _segmented(payload)
    assert len(segmented) == len(rows)
    assert type(segmented._rows) is ragkit.frame._Segmented  # len built no rows
    outcome = _outcome(validate, segmented, SemType.R, allow)
    assert outcome == _outcome(validate, rows, SemType.R, allow)
    assert outcome == _outcome(oracle_validate, Frame(SemType.R, rows.rows), SemType.R, allow)
    assert segmented._checked == rows._checked
    if not corruptions and len(rows):
        assert outcome is None and type(segmented._rows) is ragkit.frame._Segmented
    assert _lines_or_error(_segmented(payload)) == _lines_or_error(Frame(SemType.R, rows.rows))
    # a NaN equals only itself, and each build makes its own NaN objects
    for frame in (_segmented(payload), segmented):
        assert (frame == rows) == (Frame(SemType.R, _segmented(payload).rows) == rows)
        assert (frame == rows) or "nan score" in corruptions


def test_an_empty_segmented_frame_is_not_remembered_as_a_candidate_set():
    payload = [["q1", "a query", [], np.array([], dtype=np.float64), []]]
    lenient = validate(_segmented(payload), SemType.R, allow_unscored_r=True)
    assert lenient._checked is None and lenient.rows == ()
    assert validate(_segmented(payload), SemType.R)._checked == SemType.R
