import random

import numpy as np
import pytest

from ragkit.errors import DuplicateKey, KindMismatch, MissingColumn, RankViolation
from ragkit.frame import (
    Frame,
    SemType,
    assign_ranks,
    concat,
    terminal_frame,
    validate,
)


def test_frame_is_an_immutable_value():
    src = [{"qid": "q1", "query": "apple"}]
    f = Frame(SemType.Q, src)
    src[0]["query"] = "mutated"
    assert f.rows[0]["query"] == "apple"
    assert len(f) == 1
    assert list(f) == [{"qid": "q1", "query": "apple"}]
    with pytest.raises(AttributeError):
        f.extra = 1


def test_frame_equality_and_repr():
    a = Frame(SemType.Q, [{"qid": "q1", "query": "x"}])
    b = Frame(SemType.Q, [{"qid": "q1", "query": "x"}])
    c = Frame(SemType.A, [{"qid": "q1", "qanswer": "x"}])
    assert a == b
    assert a != c
    # same type, different rows
    assert a != Frame(SemType.Q, [{"qid": "q1", "query": "y"}])
    assert a != Frame(SemType.Q, [{"qid": "q1", "query": "x"}, {"qid": "q2", "query": "x"}])
    assert "Q" in repr(a)
    assert repr(terminal_frame()) == "Frame(Terminal, 0 rows)"


def test_column_accessor():
    f = Frame(SemType.Q, [{"qid": "q1", "query": "a"}, {"qid": "q2", "query": "b"}])
    assert f.column("query") == ["a", "b"]


def test_validate_accepts_all_seven_relation_types():
    ok = {
        SemType.Q: {"qid": "q", "query": "text"},
        SemType.D: {"docno": "d", "text": "body"},
        SemType.R: {"qid": "q", "docno": "d", "score": 1.5, "rank": 0},
        SemType.QC: {"qid": "q", "query": "text", "qcontext": "ctx"},
        SemType.A: {"qid": "q", "qanswer": "ans"},
        SemType.GA: {"qid": "q", "ganswer": ["ans"]},
        SemType.RA: {"qid": "q", "docno": "d", "label": 1},
    }
    for semtype, row in ok.items():
        validate(Frame(semtype, [row]), semtype)


def test_validate_missing_column():
    with pytest.raises(MissingColumn) as err:
        validate(Frame(SemType.Q, [{"qid": "q1"}]), SemType.Q)
    assert "query" in str(err.value)


def test_validate_kind_mismatch():
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.Q, [{"qid": 7, "query": "x"}]), SemType.Q)
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.R, [{"qid": "q", "docno": "d", "score": "hi", "rank": 0}]),
                 SemType.R)
    # bool is not an acceptable int or real
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.RA, [{"qid": "q", "docno": "d", "label": True}]),
                 SemType.RA)
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.GA, [{"qid": "q", "ganswer": "not a list"}]), SemType.GA)
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.Q, [{"qid": "q", "query": None}]), SemType.Q)


def test_validate_wrong_tag():
    f = Frame(SemType.Q, [{"qid": "q", "query": "x"}])
    with pytest.raises(KindMismatch):
        validate(f, SemType.A)


def test_validate_duplicate_keys():
    with pytest.raises(DuplicateKey):
        validate(Frame(SemType.Q, [{"qid": "q", "query": "a"},
                                   {"qid": "q", "query": "b"}]), SemType.Q)
    rows = [
        {"qid": "q", "docno": "d", "score": 2.0, "rank": 0},
        {"qid": "q", "docno": "d", "score": 1.0, "rank": 1},
    ]
    with pytest.raises(DuplicateKey):
        validate(Frame(SemType.R, rows), SemType.R)


def test_validate_rank_invariants():
    # ranks must be 0..n-1 per qid
    gap = [{"qid": "q", "docno": "d1", "score": 2.0, "rank": 0},
           {"qid": "q", "docno": "d2", "score": 1.0, "rank": 2}]
    with pytest.raises(RankViolation):
        validate(Frame(SemType.R, gap), SemType.R)
    # score must not increase with rank
    bad = [{"qid": "q", "docno": "d1", "score": 1.0, "rank": 0},
           {"qid": "q", "docno": "d2", "score": 2.0, "rank": 1}]
    with pytest.raises(RankViolation):
        validate(Frame(SemType.R, bad), SemType.R)
    with pytest.raises(KindMismatch):
        validate(Frame(SemType.R, [{"qid": "q", "docno": "d", "score": 1.0, "rank": -1}]),
                 SemType.R)


def test_validate_unscored_r_only_when_allowed():
    cand = Frame(SemType.R, [{"qid": "q", "docno": "d1"}, {"qid": "q", "docno": "d2"}])
    validate(cand, SemType.R, allow_unscored_r=True)
    with pytest.raises(MissingColumn):
        validate(cand, SemType.R)
    # a partially scored frame is invalid either way
    mixed = Frame(SemType.R, [{"qid": "q", "docno": "d1", "score": 1.0},
                              {"qid": "q", "docno": "d2"}])
    with pytest.raises(MissingColumn):
        validate(mixed, SemType.R, allow_unscored_r=True)


def test_assign_ranks_orders_by_score_then_docno():
    rows = [
        {"qid": "q1", "docno": "d2", "score": 1.0},
        {"qid": "q1", "docno": "d1", "score": 3.0},
        {"qid": "q1", "docno": "d3", "score": 3.0},
    ]
    f = assign_ranks(rows)
    assert [(r["docno"], r["rank"]) for r in f.rows] == [
        ("d1", 0), ("d3", 1), ("d2", 2)]
    validate(f, SemType.R)


def test_assign_ranks_is_order_insensitive_and_idempotent():
    rng = random.Random(7)
    rows = [{"qid": f"q{rng.randint(0, 3)}", "docno": f"d{i}",
             "score": rng.choice([1.0, 2.0, 2.0, 5.0])} for i in range(40)]
    base = assign_ranks(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert assign_ranks(shuffled) == base
    assert assign_ranks(base) == base


def test_assign_ranks_output_owns_its_rows():
    rng = random.Random(11)
    rows = [{"qid": f"q{rng.randint(0, 2)}", "docno": f"d{i}",
             "score": rng.choice([0.5, 1.0, 3.0]), "text": f"t{i}"} for i in range(30)]
    expected = []
    for qid in sorted({r["qid"] for r in rows}):
        ranked = sorted((r for r in rows if r["qid"] == qid),
                        key=lambda r: (-r["score"], r["docno"]))
        expected += [{**r, "rank": i} for i, r in enumerate(ranked)]
    for _ in range(5):
        shuffled = [dict(r) for r in rows]
        rng.shuffle(shuffled)
        for given in (shuffled, Frame(None, shuffled)):
            out = assign_ranks(given)
            assert list(out.rows) == expected
            for row in given:
                row["score"], row["text"] = -1.0, "changed"
            assert list(out.rows) == expected
            validate(out, SemType.R)


def test_assign_ranks_rejects_bad_input():
    with pytest.raises(MissingColumn):
        assign_ranks([{"qid": "q", "docno": "d"}])
    with pytest.raises(KindMismatch):
        assign_ranks([{"qid": "q", "docno": "d", "score": "high"}])
    with pytest.raises(DuplicateKey):
        assign_ranks([{"qid": "q", "docno": "d", "score": 1.0},
                      {"qid": "q", "docno": "d", "score": 2.0}])


def test_assign_ranks_score_kind():
    for score in (1, 2.5, np.float64(0.5)):
        assert assign_ranks([{"qid": "q", "docno": "d", "score": score}]).rows[0]["rank"] == 0
    for score in (True, None, np.int64(1)):
        with pytest.raises(KindMismatch) as err:
            assign_ranks([{"qid": "q", "docno": "d", "score": score}])
        assert str(err.value) == f"score must be numeric, got {score!r}"


def test_nan_scores_are_refused():
    # NaN compares false both ways, so it would pass the rising-score rule
    # and make assign_ranks depend on the input order
    nan = float("nan")
    ranked = [{"qid": "q", "docno": f"d{i}", "score": s, "rank": i}
              for i, s in enumerate((1.0, nan, 2.0))]
    for allow in (False, True):
        with pytest.raises(KindMismatch, match="score must be numeric, got nan"):
            validate(Frame(SemType.R, ranked), SemType.R, allow_unscored_r=allow)
    scored = [{"qid": "q", "docno": d, "score": s} for d, s in zip("abc", (1.0, nan, 2.0))]
    for rows in (scored, scored[::-1]):
        with pytest.raises(KindMismatch, match="score must be numeric, got nan"):
            assign_ranks(rows)


def test_assign_ranks_keeps_extra_columns():
    f = assign_ranks([{"qid": "q", "docno": "d", "score": 1.0, "text": "body"}])
    assert f.rows[0]["text"] == "body"


def test_concat_merges_and_validates():
    a = Frame(SemType.Q, [{"qid": "q1", "query": "a"}])
    b = Frame(SemType.Q, [{"qid": "q2", "query": "b"}])
    merged = concat([a, b], SemType.Q)
    assert merged.column("qid") == ["q1", "q2"]
    with pytest.raises(KindMismatch):
        concat([a, Frame(SemType.A, [{"qid": "x", "qanswer": "y"}])], SemType.Q)
    with pytest.raises(DuplicateKey):
        concat([a, a], SemType.Q)
