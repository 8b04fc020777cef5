"""Every reader of R rows -- cutoff, set union, context building, the IRCoT
fold and run files -- reads them through `rank_ordered`, so the order in
which a stage emits its rows never changes what the readers make of them."""

from hypothesis import given, settings, strategies as st

from ragkit.datasets import run_lines
from ragkit.frame import Frame, SemType, assign_ranks, rank_ordered, validate
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
        if ranked or reader.startswith(("concat", "ircot")):
            assert got[reader] == want[reader], reader
        else:  # a candidate set's row layout across qids is its own
            assert _by_qid(got[reader]) == _by_qid(want[reader]), reader
    # the cutoff keeps each qid's first k rows in rank order
    first_k = [r for group in _by_qid(reference).values() for r in group[:k]]
    cut = list(got["cutoff"])
    assert (cut if ranked else sorted(cut, key=lambda r: r["qid"])) == first_k


def test_rank_ordered_returns_the_rows_unless_they_need_sorting():
    ranked = assign_ranks([{"qid": "q", "docno": f"d{i}", "score": float(i)} for i in range(3)])
    assert rank_ordered(ranked) == sorted(ranked.rows, key=lambda r: r["rank"])
    shuffled = Frame(SemType.R, ranked.rows[::-1])
    assert [r["rank"] for r in rank_ordered(validate(shuffled, SemType.R))] == [0, 1, 2]
    candidates = Frame(SemType.R, [{"qid": q, "docno": d} for q, d in ("b1", "a2", "b0")])
    assert rank_ordered(candidates) is candidates.rows
