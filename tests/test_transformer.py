import math

import pytest
from hypothesis import given, settings, strategies as st

import ragkit.transformer
from ragkit.errors import InvalidK, KindMismatch, PipelineError, TypeMismatch
from ragkit.frame import Frame, SemType, assign_ranks, validate
from ragkit.index import BM25Retriever
from ragkit.rag import Concatenator, StubBackend, reader
from ragkit.transformer import (
    TERMINAL,
    CombineSum,
    FnTransformer,
    RankCutoff,
    SetUnion,
    Signature,
    Then,
    Transformer,
    chain,
    combine_sum,
    components,
    identity,
    rank_cutoff,
    run,
    set_union,
    then,
    type_check,
)

from conftest import mock_retriever, reranker


def q_frame(*qids):
    return Frame(SemType.Q, [{"qid": q, "query": f"query {q}"} for q in qids])


TABLE = {
    "q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)],
    "q2": [("d2", 5.0), ("d4", 4.0)],
}


class TestLeaves:
    def test_family_signatures_accepted(self):
        for pair in [(SemType.Q, SemType.R), (SemType.R, SemType.QC),
                     (SemType.QC, SemType.A), (SemType.D, TERMINAL)]:
            FnTransformer(Signature(*pair), "t", lambda f: f)

    def test_terminal_is_one_named_instance(self):
        assert TERMINAL is ragkit.transformer._Terminal()
        assert repr(TERMINAL) == "Terminal"

    def test_identity_allowed_at_any_type(self):
        for semtype in SemType:
            ident = identity(semtype)
            assert ident.signature == Signature(semtype, semtype)

    def test_unsupported_signature_rejected(self):
        with pytest.raises(TypeMismatch):
            FnTransformer(Signature(SemType.A, SemType.Q), "bad", lambda f: f)
        with pytest.raises(TypeMismatch):
            FnTransformer(Signature(SemType.R, SemType.D), "bad", lambda f: f)
        with pytest.raises(TypeMismatch):
            class Bad(Transformer):
                signature = Signature(SemType.A, SemType.Q)

    def test_params_are_frozen_and_hashable(self):
        t = FnTransformer(Signature(SemType.Q, SemType.R), "t", lambda f: f,
                          params=(("fields", ["text", "title"]),
                                  ("cfg", {"b": 2, "a": 1})))
        assert t.params == (("fields", ("text", "title")),
                            ("cfg", (("a", 1), ("b", 2))))
        hash(t)

    def test_repr_shows_signature(self):
        t = mock_retriever(TABLE)
        assert repr(t) == "mockret[Q -> R]"


_LEAVES = [
    mock_retriever(TABLE), reranker(), Concatenator(), reader(StubBackend()),
    FnTransformer(Signature(SemType.D, TERMINAL), "sink", lambda f: None),
    *(identity(t) for t in SemType),
]

# trees from the raw constructors, which do not type-check
_RAW_TREES = st.recursive(st.sampled_from(_LEAVES), lambda children: st.one_of(
    st.builds(Then, children, children),
    st.builds(CombineSum, children, children, st.sampled_from([0.5, 1.0])),
    st.builds(SetUnion, children, children),
    st.builds(RankCutoff, children, st.integers(1, 9)),
), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_RAW_TREES)
def test_repr_never_raises(tree):
    try:
        sig = type_check(tree)
    except TypeMismatch:
        assert repr(tree).startswith(f"{tree.name}(")
    else:
        assert repr(tree) == f"{tree.name}[{sig}]"


def test_an_ill_typed_tree_shows_its_operands():
    bm = mock_retriever(TABLE)
    assert repr(RankCutoff(Then(bm, bm), 3)) == \
        "rank_cutoff(then(mockret[Q -> R], mockret[Q -> R]), 3)"


class TestEquality:
    def test_leaf_equality_by_name_and_params(self):
        a = mock_retriever(TABLE, params=(("k", 5),))
        b = mock_retriever({}, params=(("k", 5),))
        c = mock_retriever(TABLE, params=(("k", 6),))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a transformer"

    def test_then_is_associative(self):
        r, b1, b2 = mock_retriever(TABLE), reranker(2.0), reranker(3.0, name="b2")
        left = (r >> b1) >> b2
        right = r >> (b1 >> b2)
        assert left == right
        assert hash(left) == hash(right)

    def test_identity_is_neutral_in_then_spines(self):
        r = mock_retriever(TABLE)
        assert r >> identity(SemType.R) == r
        assert then(identity(SemType.Q), r) == r
        p = r >> reranker()
        assert p >> identity(SemType.R) == p

    def test_chain_of_identities_stays_identity(self):
        p = identity(SemType.R) >> identity(SemType.R)
        assert p == identity(SemType.R)

    def test_combine_weights_and_cutoff_k_matter(self):
        r1, r2 = mock_retriever(TABLE, name="r1"), mock_retriever(TABLE, name="r2")
        assert combine_sum(r1, r2) == combine_sum(r1, r2)
        assert combine_sum(r1, r2, 1.0, 2.0) != combine_sum(r1, r2)
        assert combine_sum(r1, r2) != combine_sum(r2, r1)
        assert (r1 % 5) == (r1 % 5)
        assert (r1 % 5) != (r1 % 6)
        assert set_union(r1, r2) == set_union(r1, r2)
        assert set_union(r1, r2) != combine_sum(r1, r2)

    def test_composites_are_atomic_components(self):
        r1, r2 = mock_retriever(TABLE, name="r1"), mock_retriever(TABLE, name="r2")
        p = (r1 + r2) >> reranker() >> identity(SemType.R)
        comps = components(p)
        assert [c.name for c in comps] == ["combine_sum", "boost", "identity"]
        assert chain(comps) == p

    def test_chain_rejects_empty(self):
        with pytest.raises(ValueError):
            chain([])


class TestTypeCheck:
    def test_signature_synthesis(self):
        r = mock_retriever(TABLE)
        assert type_check(r >> reranker()) == Signature(SemType.Q, SemType.R)
        assert type_check(r % 2) == Signature(SemType.Q, SemType.R)
        assert type_check(r + r) == Signature(SemType.Q, SemType.R)
        assert type_check(r | r) == Signature(SemType.Q, SemType.R)

    def test_then_mismatch_reports_path(self):
        rerank = reranker()
        with pytest.raises(TypeMismatch) as err:
            then(rerank, mock_retriever(TABLE))
        assert err.value.expected is SemType.Q
        assert err.value.actual is SemType.R
        assert "then" in err.value.path

    def test_nothing_composes_after_terminal(self):
        term = FnTransformer(Signature(SemType.D, TERMINAL), "sink",
                             lambda f: Frame(None, ()))
        docs_id = identity(SemType.D)
        with pytest.raises(TypeMismatch):
            then(term, docs_id)

    def test_combine_requires_r_outputs_and_same_input(self):
        r = mock_retriever(TABLE)
        q_rewrite = FnTransformer(Signature(SemType.Q, SemType.Q), "rw", lambda f: f)
        with pytest.raises(TypeMismatch):
            combine_sum(r, q_rewrite)
        with pytest.raises(TypeMismatch):
            set_union(q_rewrite, r)
        r_from_r = reranker()
        with pytest.raises(TypeMismatch):
            combine_sum(r, r_from_r)  # Q input vs R input

    def test_cutoff_requires_r_child_and_positive_int_k(self):
        q_rewrite = FnTransformer(Signature(SemType.Q, SemType.Q), "rw", lambda f: f)
        with pytest.raises(TypeMismatch):
            rank_cutoff(q_rewrite, 3)
        r = mock_retriever(TABLE)
        for make in (rank_cutoff, RankCutoff):
            for bad in (0, -1, 2.5, True, "3"):
                with pytest.raises(InvalidK):
                    make(r, bad)

    @pytest.mark.parametrize("build, path, expected, actual", [
        (lambda r, rw: Then(reranker(), r), "then", SemType.Q, SemType.R),
        (lambda r, rw: CombineSum(rw, r), "combine_sum.left", SemType.R, SemType.Q),
        (lambda r, rw: CombineSum(r, rw), "combine_sum.right", SemType.R, SemType.Q),
        (lambda r, rw: CombineSum(r, reranker()), "combine_sum.right",
         SemType.Q, SemType.R),
        (lambda r, rw: SetUnion(rw, r), "set_union.left", SemType.R, SemType.Q),
        (lambda r, rw: SetUnion(r, rw), "set_union.right", SemType.R, SemType.Q),
        (lambda r, rw: SetUnion(r, reranker()), "set_union.right",
         SemType.Q, SemType.R),
        (lambda r, rw: RankCutoff(rw, 3), "rank_cutoff.child", SemType.R, SemType.Q),
        (lambda r, rw: Then(r, CombineSum(rw, r)), "then.right/combine_sum.left",
         SemType.R, SemType.Q),
        (lambda r, rw: RankCutoff(SetUnion(r, Then(rw, rw)), 2),
         "rank_cutoff.child/set_union.right", SemType.R, SemType.Q),
        (lambda r, rw: CombineSum(Then(reranker(), r), Then(reranker(), r)),
         "combine_sum.left/then", SemType.Q, SemType.R),
    ])
    def test_mismatch_path_names_each_rule(self, build, path, expected, actual):
        rw = FnTransformer(Signature(SemType.Q, SemType.Q), "rw", lambda f: f)
        with pytest.raises(TypeMismatch) as err:
            type_check(build(mock_retriever(TABLE), rw))
        assert err.value.path == path
        assert (err.value.expected, err.value.actual) == (expected, actual)
        assert str(err.value) == f"type mismatch at {path}: expected {expected}, got {actual}"

    def test_raw_node_constructors_defer_checking(self):
        # building an ill-typed tree is fine; checking it is not
        bad = Then(reranker(), mock_retriever(TABLE))
        with pytest.raises(TypeMismatch):
            type_check(bad)
        with pytest.raises(TypeMismatch):
            bad.signature


class TestRun:
    def test_leaf_run_and_call(self):
        r = mock_retriever(TABLE)
        out = run(r, q_frame("q1", "q2"))
        assert out.semtype is SemType.R
        assert [x["docno"] for x in out.rows if x["qid"] == "q1"] == ["d1", "d2", "d3"]
        assert r(q_frame("q1")) == run(r, q_frame("q1"))

    def test_run_validates_input_and_output(self):
        r = mock_retriever(TABLE)
        with pytest.raises(KindMismatch):
            run(r, Frame(SemType.D, [{"docno": "d", "text": "x"}]))
        bad_out = FnTransformer(Signature(SemType.Q, SemType.R), "liar",
                                lambda f: Frame(SemType.R, [{"qid": "q"}]))
        with pytest.raises(PipelineError) as err:
            run(bad_out, q_frame("q1"))
        assert "liar" in err.value.path

    def test_each_frame_is_validated_once(self, small_index, monkeypatch):
        # the input where run() receives it, each leaf output where it is
        # produced; combinator outputs and the root are not re-checked
        seen = []

        def spy(frame, expected, **kwargs):
            seen.append(expected)
            return validate(frame, expected, **kwargs)

        monkeypatch.setattr(ragkit.transformer, "validate", spy)
        bm25 = BM25Retriever(small_index, include_fields=("text",))
        q = Frame(SemType.Q, [{"qid": "q1", "query": "capital of france"}])
        run(bm25, q)
        assert seen == [SemType.Q, SemType.R]
        seen.clear()
        run(bm25 % 10 >> Concatenator() >> reader(StubBackend()), q)
        assert seen == [SemType.Q, SemType.R, SemType.QC, SemType.A]

    def test_leaf_exception_is_wrapped_with_path(self):
        def boom(frame):
            raise RuntimeError("kaput")

        p = mock_retriever(TABLE) >> FnTransformer(
            Signature(SemType.R, SemType.R), "boom", boom)
        with pytest.raises(PipelineError) as err:
            run(p, q_frame("q1"))
        assert "boom" in err.value.path
        assert isinstance(err.value.cause, RuntimeError)

    @pytest.mark.parametrize("build, path", [
        (lambda r, bq, br: bq, "boom"),
        (lambda r, bq, br: Then(bq, reranker()), "then.left/boom"),
        (lambda r, bq, br: Then(r, br), "then.right/boom"),
        (lambda r, bq, br: CombineSum(bq, r), "combine_sum.left/boom"),
        (lambda r, bq, br: CombineSum(r, bq), "combine_sum.right/boom"),
        (lambda r, bq, br: SetUnion(bq, r), "set_union.left/boom"),
        (lambda r, bq, br: SetUnion(r, bq), "set_union.right/boom"),
        (lambda r, bq, br: RankCutoff(bq, 2), "rank_cutoff.child/boom"),
        (lambda r, bq, br: Then(r, RankCutoff(br, 2)), "then.right/rank_cutoff.child/boom"),
    ])
    def test_failing_leaf_path_names_its_operand_slots(self, build, path):
        def boom(frame):
            raise RuntimeError("kaput")

        bq = FnTransformer(Signature(SemType.Q, SemType.R), "boom", boom)
        br = FnTransformer(Signature(SemType.R, SemType.R), "boom", boom)
        with pytest.raises(PipelineError) as err:
            run(build(mock_retriever(TABLE), bq, br), q_frame("q1"))
        assert err.value.path == path
        assert str(err.value) == f"error at {path}: kaput"

    def test_a_combinator_failure_is_wrapped_at_its_path(self):
        # 0.0 * inf is NaN, which the summed scores' ranking refuses
        inf = FnTransformer(Signature(SemType.Q, SemType.R), "inf", lambda f: assign_ranks(
            [{"qid": r["qid"], "docno": "d9", "score": math.inf} for r in f.rows]))
        summed = combine_sum(inf, mock_retriever(TABLE), 0.0, 1.0)
        for p, path in [(summed, "combine_sum"),
                        (summed >> reranker(), "then.left/combine_sum")]:
            with pytest.raises(PipelineError) as err:
                run(p, q_frame("q1"))
            assert err.value.path == path
            assert isinstance(err.value.cause, KindMismatch)
            assert str(err.value) == f"error at {path}: score must be numeric, got nan"

    @pytest.mark.parametrize("merge", [combine_sum, set_union])
    def test_a_merge_of_incomparable_queries_is_wrapped_at_its_path(self, merge):
        numbered = FnTransformer(Signature(SemType.Q, SemType.R), "numbered", lambda f: (
            assign_ranks([{"qid": r["qid"], "docno": "d9", "score": 1.0, "query": 5}
                          for r in f.rows])))
        with pytest.raises(PipelineError) as err:
            run(merge(mock_retriever(TABLE), numbered), q_frame("q1"))
        assert err.value.path == merge.__name__
        assert isinstance(err.value.cause, TypeError)

    def test_trace_of_all_four_operators_is_postorder_with_paths(self):
        r1 = mock_retriever({"q1": [("d1", 3.0), ("d2", 1.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d2", 5.0), ("d3", 2.0)]}, name="r2")
        r3 = mock_retriever({"q1": [("d3", 4.0), ("d4", 1.0)]}, name="r3")
        seen = []
        run(((r1 | r2) + r3) % 2 >> reranker(), q_frame("q1"),
            trace=lambda path, name, n: seen.append((path, name, n)))
        cut = "then.left/rank_cutoff.child"
        assert seen == [
            (f"{cut}/combine_sum.left/set_union.left/r1", "r1", 2),
            (f"{cut}/combine_sum.left/set_union.right/r2", "r2", 2),
            (f"{cut}/combine_sum.left/set_union", "set_union", 3),
            (f"{cut}/combine_sum.right/r3", "r3", 2),
            (f"{cut}/combine_sum", "combine_sum", 4),
            ("then.left/rank_cutoff", "rank_cutoff", 2),
            ("then.right/boost", "boost", 2),
            ("then", "then", 2),
        ]

    def test_trace_reports_every_node_postorder(self):
        seen = []
        p = mock_retriever(TABLE) >> reranker()
        run(p, q_frame("q1"), trace=lambda path, name, n: seen.append((name, n)))
        assert seen == [("mockret", 3), ("boost", 3), ("then", 3)]

    def test_a_terminal_stage_that_returns_rows_is_named(self):
        leaky = FnTransformer(Signature(SemType.D, TERMINAL), "sink", lambda f: f)
        docs = Frame(SemType.D, [{"docno": "d", "text": "x"}])
        for p, path in [(leaky, "sink"), (then(identity(SemType.D), leaky), "then.right/sink")]:
            with pytest.raises(PipelineError) as err:
                run(p, docs)
            assert err.value.path == path
            assert str(err.value.cause) == "terminal output must be empty"

    def test_terminal_run_returns_empty_frame(self):
        sink = FnTransformer(Signature(SemType.D, TERMINAL), "sink",
                             lambda f: None)
        out = run(sink, Frame(SemType.D, [{"docno": "d", "text": "x"}]))
        assert out.semtype is None and len(out) == 0


class TestCombineSum:
    def test_outer_join_with_missing_as_zero(self):
        r1 = mock_retriever({"q1": [("d1", 1.0), ("d2", 2.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d2", 10.0), ("d3", 4.0)]}, name="r2")
        out = run(r1 + r2, q_frame("q1"))
        scores = {x["docno"]: x["score"] for x in out.rows}
        assert scores == {"d1": 1.0, "d2": 12.0, "d3": 4.0}
        assert [x["docno"] for x in out.rows] == ["d2", "d3", "d1"]
        assert [x["rank"] for x in out.rows] == [0, 1, 2]

    def test_weights_scale_each_side(self):
        r1 = mock_retriever({"q1": [("d1", 1.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d1", 1.0)]}, name="r2")
        out = run(combine_sum(r1, r2, 2.0, 0.5), q_frame("q1"))
        assert out.rows[0]["score"] == 2.5

    def test_query_column_is_carried_through(self):
        r1 = mock_retriever({"q1": [("d1", 1.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d2", 1.0)]}, name="r2")
        for node in (r1 + r2, r1 | r2):
            out = run(node, q_frame("q1"))
            assert all(x["query"] == "query q1" for x in out.rows)


@pytest.mark.parametrize("weights, name", [
    ((math.nan, 1.0), "weight_left"),
    ((1.0, math.inf), "weight_right"),
    ((-math.inf, 1.0), "weight_left"),
    ((1.0, "nan"), "weight_right"),
])
def test_combine_weights_must_be_finite(weights, name):
    r = mock_retriever(TABLE)
    for build in (combine_sum, CombineSum):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build(r, r, *weights)


class TestSetUnion:
    def test_union_order_and_schema(self):
        r1 = mock_retriever({"q1": [("d2", 9.0), ("d1", 5.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d3", 7.0), ("d1", 6.0)]}, name="r2")
        out = run(r1 | r2, q_frame("q1"))
        assert [x["docno"] for x in out.rows] == ["d2", "d1", "d3"]
        assert all("score" not in x and "rank" not in x for x in out.rows)

    def test_union_output_feeds_first_k_cutoff(self):
        r1 = mock_retriever({"q1": [("d2", 9.0), ("d1", 5.0)]}, name="r1")
        r2 = mock_retriever({"q1": [("d3", 7.0)]}, name="r2")
        out = run((r1 | r2) % 2, q_frame("q1"))
        assert [x["docno"] for x in out.rows] == ["d2", "d1"]


class TestRankCutoff:
    def test_keeps_top_k_with_original_ranks(self):
        out = run(mock_retriever(TABLE) % 2, q_frame("q1", "q2"))
        assert [(x["qid"], x["docno"], x["rank"]) for x in out.rows] == [
            ("q1", "d1", 0), ("q1", "d2", 1), ("q2", "d2", 0), ("q2", "d4", 1)]

    def test_k_larger_than_list_is_a_noop(self):
        r = mock_retriever(TABLE)
        assert run(r % 99, q_frame("q1")) == run(r, q_frame("q1"))


def test_end_to_end_mixed_pipeline():
    r1 = mock_retriever({"q1": [("d1", 1.0), ("d2", 3.0)]}, name="r1")
    r2 = mock_retriever({"q1": [("d3", 2.0)]}, name="r2")
    p = ((r1 + r2) % 2) >> reranker(10.0)
    out = run(p, q_frame("q1"))
    assert [(x["docno"], x["score"]) for x in out.rows] == [("d2", 30.0), ("d3", 20.0)]
