import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from ragkit.errors import (
    EmptyGold,
    LengthMismatch,
    MissingGold,
    TooFewSamples,
    TypeMismatch,
)
from ragkit.eval import (
    EM,
    F1,
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
from ragkit.rag import HttpBackend, StubBackend, concatenate_context, reader, zero_shot
from ragkit.transformer import FnTransformer, Signature, run

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

    def test_batching_matches_single_pass(self):
        ret = mock_retriever({q["qid"]: [("d1", 1.0)] for q in TOPICS.rows})
        sys_a = make_system({"q1": "paris", "q2": "tokyo", "q3": "rome"}, "a")
        whole = experiment([("a", sys_a)], TOPICS, GOLD)
        batched = experiment([("a", sys_a)], TOPICS, GOLD, batch_size=2)
        assert whole.per_query == batched.per_query
        assert whole.aggregates == batched.aggregates
        with pytest.raises(ValueError):
            experiment([("a", sys_a)], TOPICS, GOLD, batch_size=0)

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
