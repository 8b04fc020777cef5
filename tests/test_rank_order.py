"""Every reader of R rows -- cutoff, set union, context building, the IRCoT
fold and run files -- reads them per query through `by_query`, so the order
in which a stage emits its rows never changes what the readers make of them.
Cutoff and set union lay their output out per qid, qids ascending, a
candidate set's too."""

from hypothesis import given, settings, strategies as st

from ragkit.datasets import run_lines
from ragkit.frame import Frame, SemType, assign_ranks, by_query, validate
from ragkit.rag import Concatenator, ircot
from ragkit.transformer import FnTransformer, Signature, run

from conftest import mock_retriever
from test_rag import RecordingBackend


def _emitting(rows, name="emit"):
    """Q -> R: a custom stage that emits `rows`, in the given order, for the
    qids of its input."""

    def apply(frame):
        qids = {r["qid"] for r in frame.rows}
        return Frame(SemType.R, [r for r in rows if r["qid"] in qids])

    return FnTransformer(Signature(SemType.Q, SemType.R), name, apply)


@st.composite
def _r_frames(draw):
    """(rows, reference): a valid R frame's rows over several qids, ranked or
    a candidate set, laid out in any order that keeps a candidate set's
    per-qid order, and the same rows in reference order -- by (qid, rank)
    when ranked, grouped by qid otherwise."""
    rows = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q10", "q2", "Q3", "é"]),
                             min_size=1, max_size=4, unique=True)):
        scores = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6))
        rows += [{"qid": qid, "docno": f"d{len(rows) + i}", "score": s,
                  "query": f"question {qid}", "text": f"text {len(rows) + i}"}
                 for i, s in enumerate(scores)]
    if draw(st.booleans()):
        reference = sorted(assign_ranks(rows).rows, key=lambda r: (r["qid"], r["rank"]))
        return list(draw(st.permutations(reference))), reference
    reference = [{k: v for k, v in r.items() if k != "score"} for r in rows]
    reference = sorted(draw(st.permutations(reference)), key=lambda r: r["qid"])
    # interleave the qids at random, each qid's rows kept in their order
    queues = {}
    for r in reference:
        queues.setdefault(r["qid"], []).append(r)
    laid_out = []
    for qid in draw(st.permutations([r["qid"] for r in reference])):
        laid_out.append(queues[qid].pop(0))
    return laid_out, reference


def _by_qid(rows):
    groups = {}
    for r in rows:
        groups.setdefault(r["qid"], []).append(r)
    return groups


def _topics(rows):
    return Frame(SemType.Q, [{"qid": q, "query": f"question {q}"} for q in _by_qid(rows)])


@settings(max_examples=200, deadline=None)
@given(_r_frames(), st.integers(1, 7))
def test_every_reader_of_r_rows_reads_them_in_rank_order(frame_rows, k):
    rows, reference = frame_rows
    ranked = "rank" in reference[0]
    topics = _topics(rows)

    def outputs(stage_rows):
        stage = _emitting(stage_rows)
        other = mock_retriever({q: [("d1", 9.0), ("x", 1.0)] for q in _by_qid(rows)})
        backend = RecordingBackend(answer="step")
        loop = ircot(stage, backend, max_iterations=2, docs_per_iteration=k)
        run(loop, topics)
        out = {
            "concat": run(stage >> Concatenator(k_docs=k), topics).rows,
            # an unchecked frame, as a custom stage's caller may pass one
            "concat all": Concatenator().apply(Frame(SemType.R, stage_rows)).rows,
            "union left": run(stage | other, topics).rows,
            "union right": run(other | stage, topics).rows,
            "ircot prompts": backend.prompts,
            "cutoff": run(stage % k, topics).rows,
        }
        if ranked:
            out["run lines"] = run_lines(Frame(SemType.R, stage_rows))
        return out

    got, want = outputs(rows), outputs(reference)
    for reader in got:
        assert got[reader] == want[reader], reader
    # candidate sets included, these outputs are laid out per qid, qids ascending
    for reader in ("union left", "union right", "cutoff"):
        qids = [r["qid"] for r in got[reader]]
        assert qids == sorted(qids), reader
    # the cutoff keeps each qid's first k rows in rank order
    assert list(got["cutoff"]) == [r for group in _by_qid(reference).values() for r in group[:k]]


def test_union_lays_its_rows_out_per_qid():
    topics = Frame(SemType.Q, [{"qid": q, "query": q} for q in ("q2", "q1")])
    a = mock_retriever({"q1": [("d1", 2.0), ("d2", 1.0)], "q2": [("d5", 1.0)]}, name="a")
    b = mock_retriever({"q1": [("d3", 2.0), ("d1", 1.0)], "q2": [("d5", 2.0), ("d6", 1.0)]},
                       name="b")
    out = run(a | b, topics)
    assert [(r["qid"], r["docno"]) for r in out.rows] == [
        ("q1", "d1"), ("q1", "d2"), ("q1", "d3"), ("q2", "d5"), ("q2", "d6")]


def test_by_query_groups_the_rows_per_qid_in_rank_order():
    ranked = assign_ranks([{"qid": q, "docno": f"d{i}", "score": float(i)}
                           for q in ("q2", "q1") for i in range(3)])
    want = [(q, sorted((r for r in ranked.rows if r["qid"] == q), key=lambda r: r["rank"]))
            for q in ("q1", "q2")]
    assert by_query(ranked) == want
    shuffled = Frame(SemType.R, ranked.rows[::-1])
    assert by_query(validate(shuffled, SemType.R)) == want
    # a candidate set's rows keep their given order within each qid
    candidates = Frame(SemType.R, [{"qid": q, "docno": d} for q, d in ("b1", "a2", "b0")])
    assert [(q, [r["docno"] for r in rows]) for q, rows in by_query(candidates)] == [
        ("a", ["2"]), ("b", ["1", "0"])]
