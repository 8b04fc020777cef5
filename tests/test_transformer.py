import pytest

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
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(InvalidK):
                rank_cutoff(r, bad)

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

    def test_trace_reports_every_node_postorder(self):
        seen = []
        p = mock_retriever(TABLE) >> reranker()
        run(p, q_frame("q1"), trace=lambda path, name, n: seen.append((name, n)))
        assert seen == [("mockret", 3), ("boost", 3), ("then", 3)]

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
