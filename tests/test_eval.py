import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

import ragkit
from ragkit.errors import (
    EmptyGold,
    InvalidK,
    LengthMismatch,
    MissingGold,
    PipelineError,
    TooFewSamples,
    TypeMismatch,
)
from ragkit.eval import (
    EM,
    F1,
    _t_two_sided,
    bonferroni,
    exact_match,
    experiment,
    f1,
    holm,
    normalize_answer,
    paired_ttest,
    resolve_measures,
)
from ragkit.frame import Frame, SemType, assign_ranks
from ragkit.rag import (
    Backend,
    HttpBackend,
    StubBackend,
    concatenate_context,
    reader,
    zero_shot,
)
from ragkit.transformer import FnTransformer, Signature, Transformer, chain, identity, run

from conftest import counted, counting_retriever, mock_retriever, reranker


class TestNormalization:
    def test_lowercase_punctuation_articles_whitespace(self):
        assert normalize_answer("The  Eiffel Tower!") == "eiffel tower"
        assert normalize_answer("A man, a plan.") == "man plan"
        assert normalize_answer("it's an apple") == "its apple"
        assert normalize_answer("THE THE THE") == ""
        assert normalize_answer("") == ""

    def test_articles_only_as_whole_words(self):
        assert normalize_answer("theater analysis") == "theater analysis"
        assert normalize_answer("banana") == "banana"

    def test_punctuation_strips_before_article_removal(self):
        # "the." becomes "the" first and is then dropped as an article
        assert normalize_answer("the. end") == "end"

    def test_idempotent(self):
        for s in ("The  Eiffel Tower!", "a b c", "", "Hello---World"):
            once = normalize_answer(s)
            assert normalize_answer(once) == once


class TestExactMatchAndF1:
    def test_exact_match(self):
        assert exact_match("The Eiffel Tower!", ["eiffel tower"]) == 1.0
        assert exact_match("eiffel", ["eiffel tower"]) == 0.0
        assert exact_match("x", ["y", "X."]) == 1.0

    def test_f1_token_overlap(self):
        # pred {eiffel, tower} vs gold {tower}: p=1/2, r=1, f1=2/3
        assert f1("eiffel tower", ["tower"]) == pytest.approx(2 / 3)
        assert f1("tower", ["tower"]) == 1.0
        assert f1("nothing shared", ["tower"]) == 0.0

    def test_f1_counts_repeated_tokens(self):
        # pred {to:2} vs gold {to:1, be:2}: overlap 1, p=1/2, r=1/3
        assert f1("to to", ["to be be"]) == pytest.approx(2 * 0.5 * (1 / 3) / (0.5 + 1 / 3))

    def test_f1_maximizes_over_golds(self):
        assert f1("eiffel tower", ["arc", "the eiffel tower", "paris"]) == 1.0

    def test_both_empty_after_normalization(self):
        assert f1("the", ["a"]) == 1.0
        assert exact_match("the", ["a"]) == 1.0

    def test_f1_of_an_empty_prediction_against_a_nonempty_gold(self):
        assert f1("", ["paris"]) == 0.0
        assert f1("the", ["paris"]) == 0.0

    def test_empty_gold_list_rejected(self):
        with pytest.raises(EmptyGold):
            exact_match("x", [])
        with pytest.raises(EmptyGold):
            f1("x", [])

    def test_em_implies_f1(self):
        rng = random.Random(99)
        vocab = ["the", "a", "tower", "eiffel", "paris!", "42", "", "of"]
        for _ in range(300):
            pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
            golds = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
                     for _ in range(rng.randint(1, 3))]
            if exact_match(pred, golds) == 1.0:
                assert f1(pred, golds) == 1.0

    def test_resolve_measures(self):
        assert resolve_measures(["em", "F1"]) == [EM, F1]
        assert resolve_measures([EM]) == [EM]
        with pytest.raises(ValueError) as err:
            resolve_measures(["bleu"])
        assert "valid measures" in str(err.value)


class TestPairedTTest:
    def test_frozen_reference_value(self):
        assert paired_ttest([0, 0, 1, 1, 1], [0, 0, 0, 0, 1]) == \
            pytest.approx(0.17780780835622126, abs=1e-12)

    def test_matches_scipy(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 30)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            expected = scipy_stats.ttest_rel(a, b).pvalue
            assert paired_ttest(a, b) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 2000), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(-0.2, 0.2))
    def test_matches_scipy_up_to_2000_queries(self, n, seed, shift):
        rng = random.Random(seed)
        a = [rng.random() + shift for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        expected = scipy_stats.ttest_rel(a, b).pvalue
        assert paired_ttest(a, b) == pytest.approx(expected, abs=1e-12)

    def test_tail_closed_forms(self):
        # df=1 is the Cauchy tail, df=2 has an algebraic one; the second
        # forms below are the same values without cancellation at large t
        for k in range(-600, 301):
            t = 10 ** (k / 50)
            p1, p2 = _t_two_sided(t, 1), _t_two_sided(t, 2)
            s = math.sqrt(2 + t * t)
            assert p1 == pytest.approx(1 - 2 * math.atan(t) / math.pi, abs=1e-14)
            assert p1 == pytest.approx(2 * math.atan(1 / t) / math.pi, rel=1e-13)
            assert p2 == pytest.approx(1 - t / s, abs=1e-14)
            assert p2 == pytest.approx(2 / (s * (s + t)), rel=1e-13)

    def test_tail_keeps_its_digits_at_large_df(self):
        # lgamma(a + 1/2) - lgamma(a) alone is off by ~1e-12 at df = 5000
        for df in (5000, 10**5, 10**7):
            for t in (0.01, 0.5, 0.99, 1.01, 1.7, 2.5, 4.0, 8.0):
                expected = 2 * scipy_stats.t.sf(t, df)
                assert _t_two_sided(t, df) == pytest.approx(expected, abs=1e-13)

    def test_huge_t_against_small_df(self):
        for df in (1, 2, 3, 10):
            for t in (1e16, 1e100, 1e154, 1e155, 1e300, math.inf):
                p = _t_two_sided(t, df)
                assert 0 <= p <= _t_two_sided(1e6, df)
        # t near 1e16 on three degrees of freedom: x = df / (df + t^2)
        # is tiny and 1 - x rounds to 1.0
        p = paired_ttest([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1e-16])
        assert 0 <= p < 1e-40

    @settings(max_examples=300, deadline=None)
    @given(df=st.integers(1, 10**5), t=st.floats(1e-12, 1e6),
           step=st.floats(1e-9, 10))
    # either side of the switch to I_{1-x}(b, a), at t = 1 for every df
    @example(df=1, t=0.999999, step=2e-6)
    @example(df=30, t=0.999999, step=2e-6)
    @example(df=10**5, t=0.999999, step=2e-6)
    def test_tail_never_rises_with_t(self, df, t, step):
        assert _t_two_sided(t * (1 + step), df) <= _t_two_sided(t, df)

    def test_import_does_not_load_scipy(self):
        src = str(Path(ragkit.__file__).parents[1])
        code = "import sys, ragkit, ragkit.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_degenerate_conventions(self):
        assert paired_ttest([1, 1, 1], [1, 1, 1]) == 1.0
        assert paired_ttest([0.5, 0.5], [0.5, 0.5]) == 1.0
        # constant nonzero difference: zero variance, diverging t
        assert paired_ttest([1, 1, 1], [0, 0, 0]) == 0.0

    def test_input_validation(self):
        with pytest.raises(LengthMismatch):
            paired_ttest([1, 2], [1])
        with pytest.raises(TooFewSamples):
            paired_ttest([1], [1])


class TestCorrections:
    def test_frozen_examples(self):
        assert holm([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.06, 0.06])
        assert bonferroni([0.01, 0.04, 0.03]) == pytest.approx([0.03, 0.12, 0.09])

    def test_capped_at_one(self):
        assert bonferroni([0.9, 0.8]) == [1.0, 1.0]
        assert holm([0.9, 0.8]) == [1.0, 1.0]

    def test_holm_never_exceeds_bonferroni(self):
        rng = random.Random(11)
        for _ in range(100):
            ps = [rng.random() for _ in range(rng.randint(1, 8))]
            for h, bf in zip(holm(ps), bonferroni(ps)):
                assert h <= bf + 1e-15

    def test_holm_is_monotone_in_p(self):
        rng = random.Random(12)
        for _ in range(100):
            ps = [rng.random() for _ in range(rng.randint(2, 8))]
            adj = holm(ps)
            order = sorted(range(len(ps)), key=lambda i: ps[i])
            adj_sorted = [adj[i] for i in order]
            assert adj_sorted == sorted(adj_sorted)


class TestCommonPrefix:
    """Prefix sharing in experiment(), seen through counting stages: each
    distinct prefix of `then` stages runs once per batch, whichever systems
    share it."""

    def stages(self):
        counts = Counter()
        r = counted(mock_retriever({"q1": [("d1", 1.0)]}), counts, "r")
        b1 = counted(reranker(2.0), counts, "b1")
        b2 = counted(reranker(3.0, name="other"), counts, "b2")
        tail = concatenate_context(fields=("query",)) >> counted(
            reader(StubBackend("echo_query")), counts, "read")
        return counts, r, b1, b2, tail

    def applies(self, counts, *pipelines, share_prefix=True):
        counts.clear()
        systems = [(f"s{i}", p) for i, p in enumerate(pipelines)]
        experiment(systems, TOPICS, GOLD, share_prefix=share_prefix)
        return dict(counts)

    def test_shared_prefix_and_suffixes(self):
        counts, r, b1, b2, tail = self.stages()
        systems = (r >> b1 >> tail, r >> b2 >> tail)
        assert self.applies(counts, *systems) == {"r": 1, "b1": 1, "b2": 1, "read": 2}
        assert self.applies(counts, *systems, share_prefix=False) == {
            "r": 2, "b1": 1, "b2": 1, "read": 2}

    def test_identical_systems_run_once(self):
        counts, r, b1, _, tail = self.stages()
        # equal stages built separately: only the first system's ever run
        twin = mock_retriever({"q1": [("d1", 1.0)]}) >> reranker(2.0) >> tail
        assert self.applies(counts, r >> b1 >> tail, twin) == {
            "r": 1, "b1": 1, "read": 1}

    def test_identity_stages_do_not_split_a_shared_prefix(self):
        counts, r, _, _, _ = self.stages()
        ctx = counted(concatenate_context(fields=("query",)), counts, "ctx")
        echo, extract = (counted(reader(StubBackend(mode)), counts, mode)
                         for mode in ("echo_query", "extractive_first_sentence"))
        systems = (r >> identity(SemType.R) >> ctx >> echo, r >> ctx >> extract)
        assert self.applies(counts, *systems) == {
            "r": 1, "ctx": 1, "echo_query": 1, "extractive_first_sentence": 1}

    def test_a_shared_stage_is_timed_under_the_shared_prefix(self, monkeypatch):
        # a clock that only the stages move, each by its own power of two,
        # so that every timing slot sums exactly
        clock = [0.0]
        monkeypatch.setattr(ragkit.eval, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

        def taking(stage, seconds):
            inner = stage.apply

            def apply(frame):
                clock[0] += seconds
                return inner(frame)

            stage.apply = apply
            return stage

        r = taking(mock_retriever({"q1": [("d1", 1.0)]}), 1.0)
        b1, b2 = taking(reranker(2.0), 2.0), taking(reranker(3.0, name="other"), 4.0)
        tail = concatenate_context(fields=("query",)) >> taking(
            reader(StubBackend("echo_query")), 8.0)
        report = experiment([("s0", r >> b1 >> tail), ("s1", r >> b2 >> tail)], TOPICS, GOLD)
        assert report.timing == {"s0": 10.0, "s1": 12.0, "_shared_prefix": 1.0}
        other = taking(mock_retriever({}, name="different"), 16.0)
        report = experiment([("s0", r >> b1 >> tail), ("s1", other >> b1 >> tail)],
                            TOPICS, GOLD)
        assert report.timing == {"s0": 11.0, "s1": 26.0, "_shared_prefix": 0.0}

    def test_no_common_prefix(self):
        counts, r, b1, _, tail = self.stages()
        other = counted(mock_retriever({}, name="different"), counts, "other")
        assert self.applies(counts, r >> b1 >> tail, other >> b1 >> tail) == {
            "r": 1, "other": 1, "b1": 2, "read": 2}

    def test_equal_stages_after_different_prefixes_run_apart(self):
        counts, r, b1, b2, tail = self.stages()
        other = counted(mock_retriever({}, name="different"), counts, "other")
        systems = [head >> rest for head in (r, other)
                   for rest in (b1 >> tail, b1 >> b2 >> tail, b2 >> tail)]
        assert self.applies(counts, *systems) == {
            "r": 1, "other": 1, "b1": 2, "b2": 4, "read": 6}

    def test_composites_must_match_exactly(self):
        counts, r, b1, _, tail = self.stages()
        assert self.applies(counts, (r % 3) >> b1 >> tail, (r % 5) >> b1 >> tail) == {
            "r": 2, "b1": 2, "read": 2}
        assert self.applies(counts, (r % 3) >> b1 >> tail, (r % 3) >> b1 >> tail) == {
            "r": 1, "b1": 1, "read": 1}

    def test_single_pipeline_shares_everything(self):
        counts, r, b1, _, tail = self.stages()
        assert self.applies(counts, r >> b1 >> tail) == {"r": 1, "b1": 1, "read": 1}

    def test_system_sharing_nothing_leaves_the_others_sharing(self):
        counts, r, b1, b2, tail = self.stages()
        zs = counted(zero_shot(StubBackend("echo_query")), counts, "zs")
        assert self.applies(counts, zs, r >> b1 >> tail, r >> b2 >> tail) == {
            "zs": 1, "r": 1, "b1": 1, "b2": 1, "read": 2}

    def test_empty_input_rejected(self):
        for share_prefix in (True, False):
            with pytest.raises(ValueError):
                experiment([], TOPICS, GOLD, share_prefix=share_prefix)


def make_system(answer_by_qid, name):
    """Q -> A system returning fixed answers."""

    def apply(frame):
        return Frame(SemType.A, [
            {"qid": r["qid"], "qanswer": answer_by_qid.get(r["qid"], "")}
            for r in frame.rows
        ])

    return FnTransformer(Signature(SemType.Q, SemType.A), name, apply,
                         params=(("answers", tuple(sorted(answer_by_qid.items()))),))


TOPICS = Frame(SemType.Q, [
    {"qid": "q1", "query": "capital of france"},
    {"qid": "q2", "query": "capital of japan"},
    {"qid": "q3", "query": "capital of italy"},
])
GOLD = Frame(SemType.GA, [
    {"qid": "q1", "ganswer": ["Paris"]},
    {"qid": "q2", "ganswer": ["Tokyo"]},
    {"qid": "q3", "ganswer": ["Rome"]},
])


class TestExperiment:
    def test_aggregates_and_per_query(self):
        good = make_system({"q1": "paris", "q2": "tokyo", "q3": "rome"}, "good")
        half = make_system({"q1": "paris", "q2": "kyoto", "q3": "rome city"}, "half")
        report = experiment([("good", good), ("half", half)], TOPICS, GOLD)
        assert report.systems == ["good", "half"]
        assert report.measures == ["EM", "F1"]
        assert report.aggregates["good"] == {"EM": 1.0, "F1": 1.0}
        assert report.aggregates["half"]["EM"] == pytest.approx(1 / 3)
        assert report.per_query["half"]["q3"]["F1"] == pytest.approx(2 / 3)

    def test_baseline_significance_and_correction(self):
        base = make_system({"q1": "paris", "q2": "x", "q3": "y"}, "base")
        sys_a = make_system({"q1": "paris", "q2": "tokyo", "q3": "rome"}, "a")
        report = experiment([("base", base), ("a", sys_a)], TOPICS, GOLD,
                            baseline="base", correction="holm")
        assert report.baseline == "base"
        assert report.correction == "holm"
        assert set(report.significance) == {"a"}
        expected = paired_ttest([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
        assert report.significance["a"]["EM"] == pytest.approx(expected)

    def test_two_topics_are_enough_for_the_t_tests(self):
        topics = Frame(SemType.Q, TOPICS.rows[:2])
        base = make_system({"q1": "paris", "q2": "x"}, "base")
        sys_a = make_system({"q1": "paris", "q2": "tokyo"}, "a")
        report = experiment([("base", base), ("a", sys_a)], topics, GOLD, baseline="base")
        assert report.significance["a"]["EM"] == paired_ttest([1.0, 1.0], [1.0, 0.0])
        one = experiment([("base", base), ("a", sys_a)], Frame(SemType.Q, TOPICS.rows[:1]),
                         GOLD, baseline="base")
        assert one.significance == {}

    def test_baseline_by_index(self):
        s1 = make_system({"q1": "paris"}, "s1")
        s2 = make_system({"q1": "paris"}, "s2")
        report = experiment([("s1", s1), ("s2", s2)], TOPICS, GOLD, baseline=0)
        assert report.baseline == "s1"
        assert experiment([("s1", s1), ("s2", s2)], TOPICS, GOLD,
                          baseline=1).baseline == "s2"
        # identical scores: the degenerate t-test convention applies
        assert report.significance["s2"]["EM"] == 1.0

    def test_correction_spans_systems_per_measure(self):
        base = make_system({"q1": "paris", "q2": "tokyo", "q3": "x"}, "base")
        s_a = make_system({"q1": "paris", "q2": "x", "q3": "x"}, "a")
        s_b = make_system({"q1": "x", "q2": "x", "q3": "x"}, "b")
        plain = experiment([("base", base), ("a", s_a), ("b", s_b)],
                           TOPICS, GOLD, baseline="base")
        adjusted = experiment([("base", base), ("a", s_a), ("b", s_b)],
                              TOPICS, GOLD, baseline="base", correction="bonferroni")
        for m in ("EM", "F1"):
            raw = [plain.significance[n][m] for n in ("a", "b")]
            want = bonferroni(raw)
            got = [adjusted.significance[n][m] for n in ("a", "b")]
            assert got == pytest.approx(want)

    def test_missing_answers_score_zero_with_warning(self):
        partial = make_system({"q1": "paris"}, "partial")

        def drop_q2(frame):
            return Frame(SemType.A, [
                {"qid": r["qid"], "qanswer": "paris"} for r in frame.rows
                if r["qid"] == "q1"
            ])

        lossy = FnTransformer(Signature(SemType.Q, SemType.A), "lossy", drop_q2)
        report = experiment([("lossy", lossy)], TOPICS, GOLD)
        assert report.per_query["lossy"]["q2"] == {"EM": 0.0, "F1": 0.0}
        assert any("q2" in w for w in report.warnings)

    def test_input_validation(self):
        s = make_system({}, "s")
        with pytest.raises(ValueError):
            experiment([("s", s), ("s", s)], TOPICS, GOLD)
        with pytest.raises(TypeMismatch):
            experiment([("r", mock_retriever({}))], TOPICS, GOLD)
        for bad in ("nope", True, False, -1, 1, 1.0):
            with pytest.raises(ValueError, match=r"\['s'\]"):
                experiment([("s", s)], TOPICS, GOLD, baseline=bad)
        with pytest.raises(ValueError):
            experiment([("s", s)], TOPICS, GOLD, correction="fdr")
        with pytest.raises(ValueError):
            experiment([("s", s)], TOPICS, GOLD, measures=["bleu"])
        missing_gold = Frame(SemType.GA, [{"qid": "q1", "ganswer": ["x"]}])
        with pytest.raises(MissingGold):
            experiment([("s", s)], TOPICS, missing_gold)

    def test_single_topic_skips_significance(self):
        topics = Frame(SemType.Q, [{"qid": "q1", "query": "x"}])
        gold = Frame(SemType.GA, [{"qid": "q1", "ganswer": ["x"]}])
        s1, s2 = make_system({"q1": "x"}, "s1"), make_system({"q1": "y"}, "s2")
        report = experiment([("s1", s1), ("s2", s2)], topics, gold, baseline="s1")
        assert report.significance == {}

    def test_table_without_p_values_prints_na(self):
        topics = Frame(SemType.Q, [{"qid": "q1", "query": "x"}])
        gold = Frame(SemType.GA, [{"qid": "q1", "ganswer": ["x"]}])
        s1, s2 = make_system({"q1": "x"}, "s1"), make_system({"q1": "y"}, "s2")
        table = experiment([("s1", s1), ("s2", s2)], topics, gold, baseline="s1").table()
        assert [line.split() for line in table.splitlines()[2:]] == [
            ["s1", "1.0000", "1.0000", "baseline", "baseline"],
            ["s2", "0.0000", "0.0000", "n/a", "n/a"],
        ]

    def test_the_shared_prefix_timing_slot_is_not_a_system_name(self):
        s = make_system({}, "s")
        with pytest.raises(ValueError, match="reserved"):
            experiment([("a", s), ("_shared_prefix", s)], TOPICS, GOLD)

    def test_a_stage_named_identity_is_still_a_stage(self):
        a = mock_retriever({q["qid"]: [("d1", 2.0)] for q in TOPICS.rows}, name="a")
        b = mock_retriever({q["qid"]: [("d2", 1.0)] for q in TOPICS.rows}, name="b")
        drop = FnTransformer(Signature(SemType.R, SemType.R), "identity", lambda f: Frame(
            SemType.R, [r for r in f.rows if r["docno"] != "d1"]))
        tail = concatenate_context(fields=("docno",)) >> reader(
            StubBackend("extractive_first_sentence"))
        systems = [("dropped", (a >> drop) + b >> tail), ("plain", a + b >> tail)]
        gold = Frame(SemType.GA, [{"qid": q["qid"], "ganswer": ["d1"]} for q in TOPICS.rows])
        reports = [experiment(systems, TOPICS, gold, share_prefix=share).to_dict()
                   for share in (True, False)]
        for report in reports:
            report.pop("timing")
        assert reports[0] == reports[1]
        assert reports[0]["aggregates"]["plain"]["EM"] == 1.0
        assert reports[0]["aggregates"]["dropped"]["EM"] == 0.0
        assert (a >> drop) + b != a + b

    def test_a_plain_transformer_subclass_runs_in_an_experiment(self):
        class Shout(Transformer):
            """Not a dataclass: equal only to itself."""

            signature = Signature(SemType.Q, SemType.A)
            name = "shout"

            def __init__(self, suffix):
                self.suffix = suffix

            def apply(self, frame):
                return Frame(SemType.A, [{"qid": r["qid"], "qanswer": r["query"] + self.suffix}
                                         for r in frame.rows])

        counts = Counter()
        loud = counted(Shout("!"), counts, "loud")
        assert loud == loud and loud != Shout("!")
        report = experiment([("a", loud), ("b", Shout("!")), ("c", loud)], TOPICS, GOLD)
        assert counts["loud"] == 1  # a and c share the one instance
        assert report.per_query["a"] == report.per_query["b"] == report.per_query["c"]

    def test_prefix_sharing_runs_shared_work_once(self):
        table = {q["qid"]: [("d1", 2.0), ("d2", 1.0)] for q in TOPICS.rows}
        ret, calls = counting_retriever(table)
        docs = {"d1": "paris is the answer", "d2": "rome maybe"}

        def attach(frame):
            return Frame(SemType.R, [dict(r, text=docs[r["docno"]]) for r in frame.rows])

        attach_t = FnTransformer(Signature(SemType.R, SemType.R), "mockattach", attach)
        make = lambda k: (ret >> attach_t >> concatenate_context(k_docs=k)
                          >> reader(StubBackend("extractive_first_sentence")))
        shared = experiment([("k1", make(1)), ("k2", make(2))], TOPICS, GOLD)
        assert calls["applies"] == 1 and calls["rows"] == 3
        calls["applies"] = calls["rows"] = 0
        unshared = experiment([("k1", make(1)), ("k2", make(2))], TOPICS, GOLD,
                              share_prefix=False)
        assert calls["applies"] == 2 and calls["rows"] == 6
        assert shared.aggregates == unshared.aggregates
        assert shared.per_query == unshared.per_query

    @pytest.mark.parametrize("share_prefix, path", [
        (True, "reader"), (False, "then.right/reader")])
    def test_a_failing_stage_is_reported_at_its_own_path(self, share_prefix, path):
        class Down(Backend):
            def generate(self, prompts, system=""):
                raise RuntimeError("backend down")

        ret = mock_retriever({q["qid"]: [("d1", 2.0), ("d2", 1.0)] for q in TOPICS.rows})
        down = Down()
        # the systems share `ret % 1`, and each has two stages of its own
        systems = [(f"k{k}", ret % 1 >> concatenate_context(fields=("query",), k_docs=k)
                    >> reader(down)) for k in (1, 2)]
        with pytest.raises(PipelineError) as err:
            experiment(systems, TOPICS, GOLD, share_prefix=share_prefix)
        assert err.value.path == path
        assert str(err.value.cause) == "backend down"

    def test_systems_headed_by_a_union_share_it(self):
        counts = Counter()
        tables = [{q["qid"]: [(f"d{i}", 1.0)] for q in TOPICS.rows} for i in (1, 2)]
        r1, r2 = (counted(mock_retriever(table, name=f"r{i}"), counts, f"r{i}")
                  for i, table in zip((1, 2), tables))
        docs = {"d1": "Paris.", "d2": "Rome."}
        attach = FnTransformer(Signature(SemType.R, SemType.R), "mockattach", lambda f: Frame(
            SemType.R, [dict(r, text=docs[r["docno"]]) for r in f.rows]))
        systems = [(f"k{k}", (r1 | r2) % 2 >> attach >> concatenate_context(k_docs=k)
                    >> reader(StubBackend("extractive_first_sentence"))) for k in (1, 2)]
        reports, applies = [], []
        for share in (True, False):
            counts.clear()
            report = experiment(systems, TOPICS, GOLD, batch_size=2, share_prefix=share)
            reports.append({k: v for k, v in report.to_dict().items() if k != "timing"})
            applies.append(dict(counts))
        assert reports[0] == reports[1]
        assert reports[0]["aggregates"]["k1"]["EM"] == 1 / 3  # q1's gold is Paris
        # two batches: with sharing once per batch, without once per system too
        assert applies == [{"r1": 2, "r2": 2}, {"r1": 4, "r2": 4}]

    def test_backends_that_answer_differently_are_never_shared(self):
        class EchoSession:
            """Answers each chat request with its URL, its temperature and
            the length of its prompt."""

            def post(self, url, json, headers, timeout):
                prompt = json["messages"][1]["content"]
                answer = f"{url} {json['temperature']} {len(prompt)}"
                body = {"choices": [{"message": {"content": answer}}]}
                return SimpleNamespace(status_code=200, json=lambda: body)

        def rag(**settings):
            backend = HttpBackend("m", session=EchoSession(),
                                  **{"base_url": "http://a", **settings})
            return (mock_retriever({q["qid"]: [("d1", 1.0)] for q in TOPICS.rows})
                    >> concatenate_context(fields=("query",)) >> reader(backend))

        base = run(rag(), TOPICS)
        gold = Frame(SemType.GA, [
            {"qid": r["qid"], "ganswer": [r["qanswer"]]} for r in base.rows])
        # 50 chars fit each question but cut its context
        systems = [("base", rag()), ("short", rag(max_input_chars=50)),
                   ("warm", rag(temperature=0.7)), ("other", rag(base_url="http://b"))]
        reports = [experiment(systems, TOPICS, gold, baseline="base", share_prefix=share)
                   .to_dict() for share in (True, False)]
        for report in reports:
            report.pop("timing")
            assert report["aggregates"]["base"]["EM"] == 1.0
            assert all(report["aggregates"][name]["EM"] == 0.0
                       for name, _ in systems[1:])
        assert reports[0] == reports[1]

    def test_stubs_with_different_budgets_are_never_shared(self):
        def rag(**settings):
            return (mock_retriever({q["qid"]: [("d1", 1.0)] for q in TOPICS.rows})
                    >> concatenate_context(fields=("query",))
                    >> reader(StubBackend("extractive_first_sentence", **settings)))

        assert zero_shot(StubBackend(max_input_chars=10)) != zero_shot(StubBackend())
        gold = Frame(SemType.GA, [{"qid": r["qid"], "ganswer": [r["query"]]}
                                  for r in TOPICS.rows])
        # 60 chars fit each question but cut its context's tail
        systems = [("wide", rag()), ("narrow", rag(max_input_chars=60))]
        reports = [experiment(systems, TOPICS, gold, share_prefix=share).to_dict()
                   for share in (True, False)]
        for report in reports:
            report.pop("timing")
            assert report["aggregates"]["wide"]["EM"] == 1.0
            assert report["aggregates"]["narrow"]["EM"] == 0.0
        assert reports[0] == reports[1]

    def test_batching_matches_single_pass(self):
        ret = mock_retriever({q["qid"]: [("d1", 1.0)] for q in TOPICS.rows})
        sys_a = make_system({"q1": "paris", "q2": "tokyo", "q3": "rome"}, "a")
        whole = experiment([("a", sys_a)], TOPICS, GOLD)
        batched = experiment([("a", sys_a)], TOPICS, GOLD, batch_size=2)
        assert whole.per_query == batched.per_query
        assert whole.aggregates == batched.aggregates
        with pytest.raises(ValueError):
            experiment([("a", sys_a)], TOPICS, GOLD, batch_size=0)

    @pytest.mark.parametrize("batch_size", [0, -1, True, 2.5, "2"])
    def test_batch_size_must_be_a_positive_int(self, batch_size):
        sys_a = make_system({"q1": "paris", "q2": "tokyo", "q3": "rome"}, "a")
        with pytest.raises(InvalidK, match="batch_size must be a positive int"):
            experiment([("a", sys_a)], TOPICS, GOLD, batch_size=batch_size)

    def test_timing_keys(self):
        r = mock_retriever({q["qid"]: [("d1", 1.0)] for q in TOPICS.rows},
                           params=(("which", 1),))
        mk = lambda name: (r >> FnTransformer(
            Signature(SemType.R, SemType.QC), "ctx",
            lambda f: Frame(SemType.QC, [
                {"qid": x["qid"], "query": x["query"], "qcontext": ""}
                for x in f.rows if x["rank"] == 0]))
            >> reader(StubBackend("echo_query")))
        report = experiment([("s1", mk("s1")), ("s2", mk("s2"))], TOPICS, GOLD)
        assert set(report.timing) == {"s1", "s2", "_shared_prefix"}
        assert all(v >= 0.0 for v in report.timing.values())


def text_retriever(i):
    """Q -> R stage returning three documents with text per query."""

    def apply(frame):
        return assign_ranks([
            {"qid": r["qid"], "query": r["query"], "docno": f"d{j}",
             "score": float(3 - j), "text": f"doc {j} of {i} for {r['query']}."}
            for r in frame.rows for j in range(3)
        ])

    return FnTransformer(Signature(SemType.Q, SemType.R), f"ret{i}", apply,
                         params=(("i", i),))


# a system is its stages' specs: (retriever, cutoff), concatenator, reader;
# or the zero-shot stage alone. A stage's counter is named after its first
# two fields; a cutoff wraps its retriever and has no counter of its own.
_RAG_SPECS = st.builds(
    lambda i, cut, j, r: (("ret", i, cut), ("concat", j), ("read", r)),
    st.integers(0, 1), st.sampled_from([None, 1, 2]),
    st.integers(0, 1), st.integers(0, 1),
)
_SYSTEM_SPECS = st.one_of(st.just((("zs",),)), _RAG_SPECS)


def _label(stage):
    return "".join(str(part) for part in stage[:2])


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(_SYSTEM_SPECS, min_size=1, max_size=5),
    n_topics=st.integers(1, 5),
    batch_size=st.one_of(st.none(), st.integers(1, 4)),
)
def test_each_distinct_prefix_runs_once_per_batch(specs, n_topics, batch_size):
    counts = Counter()
    rets = [counted(text_retriever(i), counts, f"ret{i}") for i in range(2)]
    concats = [counted(concatenate_context(k_docs=j + 1), counts, f"concat{j}")
               for j in range(2)]
    readers = [counted(reader(StubBackend(mode)), counts, f"read{r}")
               for r, mode in enumerate(("echo_query", "extractive_first_sentence"))]
    zs = counted(zero_shot(StubBackend("echo_query")), counts, "zs")

    def build(spec):
        if spec[0] == ("zs",):
            return zs
        (_, i, cut), (_, j), (_, r) = spec
        head = rets[i] if cut is None else rets[i] % cut
        return head >> concats[j] >> readers[r]

    systems = [(f"s{n}", build(spec)) for n, spec in enumerate(specs)]
    topics = Frame(SemType.Q, [
        {"qid": f"q{n}", "query": f"question {n}"} for n in range(n_topics)
    ])
    # odd topics are answered by echo readers, even ones by extractive
    # readers over retriever 1
    gold = Frame(SemType.GA, [
        {"qid": f"q{n}",
         "ganswer": [f"question {n}" if n % 2 else f"doc 0 of 1 for question {n}"]}
        for n in range(n_topics)
    ])
    n_chunks = 1 if batch_size is None else -(-n_topics // batch_size)

    reports, applies = [], []
    for share_prefix in (True, False):
        counts.clear()
        report = experiment(systems, topics, gold, baseline=0, correction="holm",
                            batch_size=batch_size, share_prefix=share_prefix)
        reports.append({k: v for k, v in report.to_dict().items() if k != "timing"})
        applies.append(dict(counts))

    assert reports[0] == reports[1]
    prefixes = {spec[:n] for spec in specs for n in range(1, len(spec) + 1)}
    assert applies[0] == {
        label: n * n_chunks
        for label, n in Counter(_label(p[-1]) for p in prefixes).items()
    }
    assert applies[1] == {
        label: n * n_chunks
        for label, n in Counter(_label(stage) for spec in specs for stage in spec).items()
    }


# a spine is a retriever, up to two rerankers, a context builder and a
# reader, each chosen by index; each stage's counter is named after it
_SPINES = st.tuples(
    st.integers(0, 1), st.lists(st.integers(0, 2), max_size=2),
    st.integers(0, 1), st.integers(0, 1),
).map(lambda t: (("ret", t[0]), *(("boost", j) for j in t[1]), ("concat", t[2]),
                 ("read", t[3])))


@settings(max_examples=100, deadline=None)
@given(
    spines=st.lists(_SPINES, min_size=1, max_size=4),
    data=st.data(),
    n_topics=st.integers(1, 4),
    batch_size=st.one_of(st.none(), st.integers(1, 3)),
)
def test_identity_stages_never_split_a_shared_prefix(spines, data, n_topics, batch_size):
    counts = Counter()
    stages = {
        **{("ret", i): text_retriever(i) for i in range(2)},
        **{("boost", j): reranker(float(j + 2), name=f"boost{j}") for j in range(3)},
        **{("concat", j): concatenate_context(k_docs=j + 1) for j in range(2)},
        **{("read", r): reader(StubBackend(mode)) for r, mode in
           enumerate(("echo_query", "extractive_first_sentence"))},
    }
    stages = {spec: counted(stage, counts, _label(spec)) for spec, stage in stages.items()}
    # the twin of a drawn spine has identity stages at drawn positions, each
    # at the type that flows there
    original = data.draw(st.sampled_from(spines))
    parts = [stages[spec] for spec in original]
    types = [part.signature.input for part in parts] + [SemType.A]
    for pos in sorted(data.draw(st.lists(st.integers(0, len(parts)), min_size=1,
                                         max_size=3)), reverse=True):
        parts.insert(pos, identity(types[pos]))
    twin = chain(parts)
    assert twin == chain([stages[spec] for spec in original])

    systems = [(f"s{n}", chain([stages[spec] for spec in spine]))
               for n, spine in enumerate(spines)] + [("twin", twin)]
    topics = Frame(SemType.Q, [
        {"qid": f"q{n}", "query": f"question {n}"} for n in range(n_topics)
    ])
    gold = Frame(SemType.GA, [
        {"qid": f"q{n}", "ganswer": [f"question {n}"]} for n in range(n_topics)
    ])
    n_chunks = 1 if batch_size is None else -(-n_topics // batch_size)

    reports, applies = [], []
    for share_prefix in (True, False):
        counts.clear()
        report = experiment(systems, topics, gold, baseline=0,
                            batch_size=batch_size, share_prefix=share_prefix)
        reports.append({k: v for k, v in report.to_dict().items() if k != "timing"})
        applies.append(dict(counts))

    assert reports[0] == reports[1]
    # with sharing, each distinct prefix, the twin's included, runs once per
    # batch: the twin adds none
    prefixes = {spine[:n] for spine in spines for n in range(1, len(spine) + 1)}
    assert applies[0] == {
        label: n * n_chunks
        for label, n in Counter(_label(p[-1]) for p in prefixes).items()
    }


class TestReportOutput:
    def report(self):
        base = make_system({"q1": "paris", "q2": "tokyo", "q3": "x"}, "base")
        other = make_system({"q1": "paris", "q2": "x", "q3": "x"}, "other")
        return experiment([("base", base), ("other", other)], TOPICS, GOLD,
                          baseline="base", correction="holm")

    def test_to_dict_and_json_round_trip(self):
        report = self.report()
        data = json.loads(report.to_json())
        assert data == report.to_dict()
        assert data["systems"] == ["base", "other"]
        assert data["aggregates"]["base"]["EM"] == pytest.approx(2 / 3)
        assert data["correction"] == "holm"

    def test_table_layout(self):
        lines = self.report().table().splitlines()
        header = lines[0].split()
        assert header == ["system", "EM", "F1", "p(EM)", "p(F1)"]
        base_row = next(l for l in lines if l.startswith("base"))
        assert "baseline" in base_row
        other_row = next(l for l in lines if l.startswith("other"))
        assert "baseline" not in other_row
        # every data cell in a p column is a 4-decimal float
        cells = other_row.split()
        assert all("." in c for c in cells[1:])

    def test_per_query_csv(self):
        text = self.report().per_query_csv()
        lines = text.splitlines()
        assert lines[0] == "system,qid,measure,score"
        # one line per system x qid x measure
        assert len(lines) == 1 + 2 * 3 * 2
        assert "base,q1,EM,1.0" in lines
