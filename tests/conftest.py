"""Shared test helpers: mock transformers, random frame builders, and the
acceptance-criteria summary printed at the end of a run."""

import pytest

from ragkit.frame import Frame, SemType, assign_ranks
from ragkit.index import index_corpus
from ragkit.transformer import FnTransformer, Signature


def mock_retriever(table, name="mockret", params=(("table", "fixed"),)):
    """Q -> R transformer backed by a qid -> [(docno, score), ...] table.
    Unknown qids retrieve nothing. Keeps the query column."""

    def apply(frame):
        rows = []
        for r in frame.rows:
            for docno, score in table.get(r["qid"], ()):
                rows.append({
                    "qid": r["qid"], "docno": docno, "score": float(score),
                    "query": r["query"],
                })
        return assign_ranks(rows)

    return FnTransformer(Signature(SemType.Q, SemType.R), name, apply, params=params)


def counting_retriever(table, name="counting"):
    """Like mock_retriever but counts apply() calls and total input rows."""
    calls = {"applies": 0, "rows": 0}

    def apply(frame):
        calls["applies"] += 1
        calls["rows"] += len(frame)
        rows = []
        for r in frame.rows:
            for docno, score in table.get(r["qid"], ()):
                rows.append({
                    "qid": r["qid"], "docno": docno, "score": float(score),
                    "query": r["query"],
                })
        return assign_ranks(rows)

    t = FnTransformer(Signature(SemType.Q, SemType.R), name, apply,
                      params=(("table", "fixed"),))
    return t, calls


def counted(stage, counts, label):
    """stage, with each apply() call tallied in counts[label]."""
    inner = stage.apply

    def apply(frame):
        counts[label] += 1
        return inner(frame)

    stage.apply = apply
    return stage


def reranker(factor=2.0, name="boost"):
    """R -> R transformer scaling scores by a constant."""

    def apply(frame):
        return assign_ranks([
            {k: v for k, v in r.items() if k != "rank"} | {"score": r["score"] * factor}
            for r in frame.rows
        ])

    return FnTransformer(Signature(SemType.R, SemType.R), name, apply,
                         params=(("factor", factor),))


def random_q_frame(rng, n_queries=4, vocab=None):
    vocab = vocab or [f"w{i}" for i in range(20)]
    rows = [
        {"qid": f"q{i:03d}",
         "query": " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))}
        for i in range(n_queries)
    ]
    return Frame(SemType.Q, rows)


def random_result_table(rng, qids, max_docs=8):
    """qid -> [(docno, score)] with unique docnos per qid."""
    table = {}
    for qid in qids:
        n = rng.randint(0, max_docs)
        docnos = rng.sample([f"d{i:03d}" for i in range(30)], n)
        table[qid] = [(d, round(rng.uniform(0, 10), 3)) for d in docnos]
    return table


def random_corpus(rng, n_docs, vocab_size=20, max_len=12):
    vocab = [f"t{i}" for i in range(vocab_size)]
    return [
        {"docno": f"d{i:04d}",
         "text": " ".join(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))}
        for i in range(n_docs)
    ]


@pytest.fixture
def small_index():
    return index_corpus([
        {"docno": "d1", "text": "the eiffel tower is in paris", "title": "Eiffel"},
        {"docno": "d2", "text": "berlin is the capital of germany", "title": "Berlin"},
        {"docno": "d3", "text": "paris is the capital of france", "title": "Paris"},
        {"docno": "d4", "text": "the colosseum is in rome italy", "title": "Rome"},
    ], fields_to_store=("text", "title"))


# -- acceptance summary --------------------------------------------------------

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{word} {name}")
