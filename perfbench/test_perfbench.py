"""Tests of the benchmark itself: seeded inputs, the fake server's answer
rule, and the metric names a run emits."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fake_llm  # noqa: E402
import workloads  # noqa: E402
from corpus import ZipfText  # noqa: E402


def _inputs(seed):
    text = ZipfText(seed, 2_000)
    docs = text.documents(200, 60)
    topics = text.topics(50, 5)
    return json.dumps([docs, topics]).encode()


def test_same_seed_gives_identical_inputs_and_other_seeds_differ():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_answer_rule_is_deterministic_and_exits_at_its_step():
    for i in range(40):
        q = f"kabedo tofilu q{i}"
        n = fake_llm.exit_step(q)
        assert 1 <= n <= 4
        replies = [fake_llm.answer(q, c) for c in range(1, 2 * n + 1)]
        assert replies == [fake_llm.answer(q, c) for c in range(1, 2 * n + 1)]
        finals = [c for c, r in enumerate(replies, 1) if "so the answer is" in r.lower()]
        assert finals == [n, 2 * n]
        assert replies[n - 1] == f"So the answer is {fake_llm.answer_word(q)}."


def test_server_counts_sightings_per_question_until_reset():
    llm = fake_llm.FakeLLM(0.0)

    def ask(q):
        return llm.reply({"model": "m", "messages": [
            {"role": "user", "content": f"Context:\nanything\n\nQuestion: {q}\nAnswer:"}]})

    first = [ask("a b"), ask("c d"), ask("a b")]
    assert first == [fake_llm.answer("a b", 1), fake_llm.answer("c d", 1),
                     fake_llm.answer("a b", 2)]
    llm.reset()
    assert ask("a b") == first[0]


TINY = {
    "search": {"n_docs": 300, "setup_reps": 1, "pool": 50, "min_ops": 2, "warmup_ops": 1},
    "rag_experiment": {"n_docs": 300, "setup_reps": 1, "batch": 4, "subset": 4,
                       "min_ops": 1, "delay_ms": 1.0},
    "ircot": {"n_docs": 300, "setup_reps": 1, "pool": 32, "min_ops": 1, "delay_ms": 1.0},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_emitted_metrics_are_the_declared_ones(name, trace):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    out = workloads.run(name, seed=3, seconds=0.2, trace=trace, sizes=TINY[name])
    result = out["result"]
    assert out["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
