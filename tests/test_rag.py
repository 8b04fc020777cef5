import pytest

from hypothesis import assume, given, settings, strategies as st

from ragkit.errors import (
    BackendError,
    InvalidK,
    MissingField,
    PipelineError,
    TemplateError,
    TypeMismatch,
)
from ragkit.frame import Frame, SemType, assign_ranks
from ragkit.rag import (
    DEFAULT_ITERATIVE_TEMPLATE,
    DEFAULT_RAG_TEMPLATE,
    Backend,
    HttpBackend,
    PromptTemplate,
    StubBackend,
    concatenate_context,
    ircot,
    _fit_prompt,
    reader,
    render_prompt,
    zero_shot,
)
from ragkit.transformer import FnTransformer, Signature, run

from conftest import counted, counting_retriever, mock_retriever


def qc_frame(*rows):
    return Frame(SemType.QC, rows)


class RecordingBackend(Backend):
    """Returns canned answers and records every prompt it sees."""

    descriptor = "recorder"

    def __init__(self, answer="ok", max_input_chars=1_000_000):
        self.answer = answer
        self.max_input_chars = max_input_chars
        self.prompts = []
        self.systems = []

    def generate(self, prompts, system=""):
        self.prompts.append(list(prompts))
        self.systems.append(system)
        return [self.answer for _ in prompts]


class TestPromptTemplate:
    def test_render_user(self):
        t = PromptTemplate(user_template="Q: {query}\nC: {context}")
        assert t.render_user("why", "because") == "Q: why\nC: because"

    def test_unknown_placeholder_fails_at_construction(self):
        with pytest.raises(TemplateError):
            PromptTemplate(user_template="{nope}")

    @pytest.mark.parametrize("kwargs, name", [
        ({"user_template": 5}, "user_template"),
        ({"user_template": "{query}", "system": None}, "system"),
    ])
    def test_non_str_parts_are_refused(self, kwargs, name):
        with pytest.raises(TypeError, match=f"{name} must be a str"):
            PromptTemplate(**kwargs)

    def test_non_placeholder_braces_survive(self):
        t = PromptTemplate(user_template="json {{}} style {query} {x1}")
        # {x1} has a digit so it is not placeholder syntax; left verbatim
        assert t.render_user("q") == "json {{}} style q {x1}"

    def test_substitution_is_single_pass(self):
        t = PromptTemplate(user_template="{query} / {context}")
        out = t.render_user("{context}", "ctx")
        assert out == "{context} / ctx"

    def test_fit_refuses_a_prompt_whose_question_alone_is_over_the_limit(self):
        overhead = len(DEFAULT_RAG_TEMPLATE.render_user("what is the capital of france"))
        with pytest.raises(TemplateError) as err:
            _fit_prompt(DEFAULT_RAG_TEMPLATE, "what is the capital of france",
                        "ctx" * 100, 20)
        assert f"is {overhead} chars" in str(err.value)
        assert "limit of 20" in str(err.value)

    def test_fit_keeps_a_template_using_context_twice_within_the_limit(self):
        t = PromptTemplate(user_template="{context}\nQ: {query}\n{context}")
        overhead = len(t.render_user("why"))
        for limit in range(overhead, overhead + 25):
            prompt = _fit_prompt(t, "why", "abcdefghij", limit)
            assert len(prompt) <= limit
            assert "\nQ: why\n" in prompt


class TestStubBackend:
    def test_echo_query_mode(self):
        s = StubBackend("echo_query")
        out = s.generate(["Context:\nstuff\n\nQuestion: what is up\nAnswer:"])
        assert out == ["what is up"]
        # no Question line: the whole prompt comes back
        assert s.generate(["just text"]) == ["just text"]
        assert s.calls == 2

    def test_extractive_mode(self):
        s = StubBackend("extractive_first_sentence")
        prompt = "Context:\nParis is big. It is old.\n\nQuestion: x\nAnswer:"
        assert s.generate([prompt]) == ["Paris is big"]

    def test_extractive_mode_without_a_sentence_answers_empty(self):
        s = StubBackend("extractive_first_sentence")
        assert s.generate(["Context:\n . ! \n?", "?!"]) == ["", ""]

    def test_scripted_mode_first_match_wins(self):
        s = StubBackend("scripted",
                        script=[("alpha", "A"), ("beta", "B")],
                        default_answer="dunno")
        assert s.generate(["beta and alpha here", "only beta", "neither"]) == \
            ["A", "B", "dunno"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            StubBackend("telepathy")

    def test_base_backend_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Backend().generate(["x"])


class TestConcatenator:
    RESULTS = assign_ranks([
        {"qid": "q1", "query": "the question", "docno": "d1", "score": 3.0,
         "text": "first doc", "title": "One"},
        {"qid": "q1", "query": "the question", "docno": "d2", "score": 2.0,
         "text": "second doc", "title": "Two"},
        {"qid": "q1", "query": "the question", "docno": "d3", "score": 1.0,
         "text": "third doc", "title": "Three"},
    ])

    def test_rank_order_and_k_docs(self):
        out = run(concatenate_context(k_docs=2), self.RESULTS)
        assert out.rows[0] == {"qid": "q1", "query": "the question",
                               "qcontext": "first doc\n\nsecond doc"}

    def test_custom_item_template_with_ordinal_and_title(self):
        c = concatenate_context(
            fields=("text", "title"),
            item_template="[{ordinal}] {title}: {text}",
            item_separator="\n")
        out = run(c, self.RESULTS)
        assert out.rows[0]["qcontext"] == \
            "[1] One: first doc\n[2] Two: second doc\n[3] Three: third doc"

    def test_per_doc_budget(self):
        out = run(concatenate_context(per_doc_char_budget=5), self.RESULTS)
        assert out.rows[0]["qcontext"] == "first\n\nsecon\n\nthird"

    def test_total_budget(self):
        out = run(concatenate_context(total_char_budget=12), self.RESULTS)
        assert out.rows[0]["qcontext"] == "first doc\n\ns"

    def test_queries_sorted_by_qid(self):
        rows = [
            {"qid": "q2", "query": "b", "docno": "d1", "score": 1.0, "text": "t2"},
            {"qid": "q1", "query": "a", "docno": "d1", "score": 1.0, "text": "t1"},
        ]
        out = run(concatenate_context(), assign_ranks(rows))
        assert out.column("qid") == ["q1", "q2"]

    def test_missing_query_or_field(self):
        no_query = assign_ranks([{"qid": "q", "docno": "d", "score": 1.0, "text": "t"}])
        with pytest.raises(PipelineError) as err:
            run(concatenate_context(), no_query)
        assert isinstance(err.value.cause, MissingField)
        no_text = assign_ranks([{"qid": "q", "query": "x", "docno": "d", "score": 1.0}])
        with pytest.raises(PipelineError) as err:
            run(concatenate_context(), no_text)
        assert isinstance(err.value.cause, MissingField)

    def test_default_item_template_may_use_any_field(self):
        rows = assign_ranks([{"qid": "q", "query": "x", "docno": "d", "score": 1.0,
                              "abstract": "a summary"}])
        out = run(concatenate_context(fields=("abstract",)), rows)
        assert out.rows[0]["qcontext"] == "a summary"
        # title and text outside fields render empty
        c = concatenate_context(k_docs=1, item_template="[{ordinal}] {title}: {text}")
        assert run(c, self.RESULTS).rows[0]["qcontext"] == "[1] : first doc"
        with pytest.raises(TemplateError):
            concatenate_context(fields=("abstract",), item_template="{body}")

    def test_any_field_name_renders_in_the_default_item(self):
        rows = assign_ranks([{"qid": "q", "query": "x", "docno": "d", "score": 1.0,
                              "text2": "hello", "my-field": "x"}])
        out = run(concatenate_context(fields=("text2", "my-field")), rows)
        assert out.rows[0]["qcontext"] == "hello\nx"

    def test_unranked_candidates_keep_row_order(self):
        cand = Frame(SemType.R, [
            {"qid": "q", "query": "x", "docno": "d9", "text": "late"},
            {"qid": "q", "query": "x", "docno": "d1", "text": "early"},
        ])
        out = run(concatenate_context(), cand)
        assert out.rows[0]["qcontext"] == "late\n\nearly"

    def test_k_docs_must_be_none_or_a_positive_int(self):
        for bad in (0, -1, 1.5, True, "2"):
            for name in ("k_docs", "per_doc_char_budget", "total_char_budget"):
                with pytest.raises(InvalidK, match=name):
                    concatenate_context(**{name: bad})

    def test_separator_and_item_template_must_be_strings(self):
        with pytest.raises(TypeError, match="item_separator"):
            concatenate_context(item_separator=5)
        with pytest.raises(TypeError, match="item_template"):
            concatenate_context(item_template=5)

    def test_empty_input(self):
        out = run(concatenate_context(), Frame(SemType.R, ()))
        assert len(out) == 0


@pytest.mark.parametrize("make", [
    StubBackend,
    lambda **kw: HttpBackend("m", base_url="http://localhost:1", **kw),
], ids=["stub", "http"])
@pytest.mark.parametrize("bad", [0, -3, 60.5, True, "100", None])
def test_a_backend_budget_must_be_a_positive_int(make, bad):
    with pytest.raises(InvalidK, match="max_input_chars"):
        make(max_input_chars=bad)


@pytest.mark.parametrize("stage", [
    reader,
    zero_shot,
    lambda backend: ircot(mock_retriever({}), backend),
], ids=["reader", "zero_shot", "ircot"])
@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_a_stage_refuses_its_backends_budget_when_it_is_built(stage, bad):
    # a Backend subclass need not check its own budget, as the built-in ones do
    with pytest.raises(InvalidK, match="max_input_chars"):
        stage(RecordingBackend(max_input_chars=bad))


@pytest.mark.parametrize("answer", [None, 5, b"Paris"])
@pytest.mark.parametrize("stage", [
    lambda backend: reader(backend),
    lambda backend: ircot(mock_retriever({"q1": [("d1", 1.0)]}), backend, fields=("query",)),
], ids=["reader", "ircot"])
def test_an_answer_that_is_not_a_str_is_reported(stage, answer):
    p = stage(RecordingBackend(answer))
    topics = Frame(SemType.Q, [{"qid": "q1", "query": "x"}])
    frame = topics if p.signature.input is SemType.Q else qc_frame(
        {"qid": "q1", "query": "x", "qcontext": "c"})
    with pytest.raises(PipelineError) as err:
        run(p, frame)
    assert isinstance(err.value.cause, BackendError)
    assert "not a str" in str(err.value.cause)


class TestPromptRenderer:
    def test_adds_prompt_column(self):
        qc = qc_frame({"qid": "q", "query": "why", "qcontext": "stuff"})
        out = run(render_prompt(DEFAULT_RAG_TEMPLATE), qc)
        assert out.rows[0]["prompt"] == \
            "Context:\nstuff\n\nQuestion: why\nAnswer:"
        assert out.rows[0]["qcontext"] == "stuff"


class TestReader:
    def test_batches_whole_frame_into_one_generate_call(self):
        backend = RecordingBackend()
        qc = qc_frame(
            {"qid": "q2", "query": "b", "qcontext": "ctx b"},
            {"qid": "q1", "query": "a", "qcontext": "ctx a"},
        )
        out = run(reader(backend), qc)
        assert len(backend.prompts) == 1
        assert len(backend.prompts[0]) == 2
        # rows are processed in qid order
        assert backend.prompts[0][0].endswith("Question: a\nAnswer:")
        assert out.column("qid") == ["q1", "q2"]
        assert backend.systems[0] == DEFAULT_RAG_TEMPLATE.system

    def test_echo_stub_round_trip(self):
        qc = qc_frame({"qid": "q", "query": "who wrote it", "qcontext": "ctx"})
        out = run(reader(StubBackend("echo_query")), qc)
        assert out.rows[0] == {"qid": "q", "qanswer": "who wrote it"}

    def test_empty_frame_skips_the_backend(self):
        backend = RecordingBackend()
        out = run(reader(backend), Frame(SemType.QC, ()))
        assert len(out) == 0 and backend.prompts == []

    def test_long_context_is_truncated_tail_first(self):
        query = "short question"
        overhead = len(DEFAULT_RAG_TEMPLATE.render_user(query, ""))
        backend = RecordingBackend(max_input_chars=overhead + 4)
        qc = qc_frame({"qid": "q", "query": query, "qcontext": "abcdefghij" * 50})
        run(reader(backend), qc)
        prompt = backend.prompts[0][0]
        assert prompt == DEFAULT_RAG_TEMPLATE.render_user(query, "abcd")
        assert f"Question: {query}" in prompt

    def test_misbehaving_backend_is_reported(self):
        class Short(Backend):
            descriptor = "short"

            def generate(self, prompts, system=""):
                return ["only one"]

        qc = qc_frame(
            {"qid": "q1", "query": "a", "qcontext": "c"},
            {"qid": "q2", "query": "b", "qcontext": "c"},
        )
        with pytest.raises(PipelineError) as err:
            run(reader(Short()), qc)
        assert isinstance(err.value.cause, BackendError)


class TestZeroShot:
    def test_answers_without_context(self):
        out = run(zero_shot(StubBackend("echo_query")),
                  Frame(SemType.Q, [{"qid": "q", "query": "what is light"}]))
        assert out.rows[0] == {"qid": "q", "qanswer": "what is light"}

    def test_rejects_context_placeholder(self):
        with pytest.raises(TemplateError):
            zero_shot(StubBackend(), PromptTemplate(user_template="{context}{query}"))

    def test_structural_equality(self):
        assert zero_shot(StubBackend()) == zero_shot(StubBackend())
        assert zero_shot(StubBackend()) != zero_shot(StubBackend("scripted"))


class TestIterativeRetrieval:
    def docs(self):
        return {
            # question about "capital" retrieves the alpha doc; once the
            # chain steers the query toward "looking", the beta doc appears
            "capital": [("dA", 2.0)],
            "looking": [("dB", 3.0), ("dA", 1.0)],
        }

    def keyed_retriever(self, calls):
        def apply(frame):
            rows = []
            for r in frame.rows:
                calls.append(r["query"])
                key = "looking" if "looking" in r["query"] else "capital"
                for docno, score in self.docs()[key]:
                    text = {"dA": "alpha fact", "dB": "beta marker fact"}[docno]
                    rows.append({"qid": r["qid"], "docno": docno,
                                 "score": score, "query": r["query"], "text": text})
            return assign_ranks(rows)

        return FnTransformer(Signature(SemType.Q, SemType.R), "keyed", apply)

    def test_exits_on_phrase_in_first_iteration(self):
        table = {"q1": [("d1", 1.0)]}
        ret = mock_retriever(table)
        # retrieved rows lack text, so build contexts from the query field
        backend = StubBackend("scripted", script=[("Question:", "so the answer is Paris.")])
        loop = ircot(ret, backend, fields=("query",), max_iterations=4)
        out = run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "capital of france"}]))
        assert out.rows[0]["qanswer"] == "Paris"
        assert out.rows[0]["iterations"] == 1

    def test_stops_at_max_iterations_and_joins_chain(self):
        ret = mock_retriever({"q1": [("d1", 1.0)]})
        backend = StubBackend("scripted", default_answer="still thinking")
        loop = ircot(ret, backend, fields=("query",), max_iterations=3)
        out = run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "anything"}]))
        assert out.rows[0]["iterations"] == 3
        assert out.rows[0]["qanswer"] == "still thinking still thinking still thinking"

    def test_later_queries_steer_retrieval_and_docs_accumulate(self):
        calls = []
        ret = self.keyed_retriever(calls)
        backend = StubBackend("scripted", script=[
            ("beta marker", "so the answer is Tokyo!"),
            ("alpha fact", "keep looking for beta"),
        ])
        loop = ircot(ret, backend, max_iterations=4, docs_per_iteration=2)
        out = run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "capital city"}]))
        assert out.rows[0]["qanswer"] == "Tokyo"
        assert out.rows[0]["iterations"] == 2
        assert calls == ["capital city", "capital city keep looking for beta"]

    def test_chain_rides_along_in_prompt(self):
        backend = RecordingBackend(answer="step sentence")
        ret = mock_retriever({"q1": [("d1", 1.0)]})
        loop = ircot(ret, backend, fields=("query",), max_iterations=2)
        run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "why"}]))
        first, second = backend.prompts[0][0], backend.prompts[1][0]
        assert not first.endswith("step sentence")
        assert second.endswith("\nstep sentence")

    def test_answer_is_whole_chain_without_phrase(self):
        ret = mock_retriever({"q1": [("d1", 1.0)]})
        backend = StubBackend("scripted", default_answer="no conclusion here")
        out = run(ircot(ret, backend, fields=("query",), max_iterations=1),
                  Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        assert out.rows[0]["qanswer"] == "no conclusion here"

    @pytest.mark.parametrize("step, answer", [
        ("İİİ so the answer is Turkey.", "Turkey"),
        ("İİ SO THE ANSWER IS İzmir!", "İzmir"),
        ("ΟΔΟΣ so the answer is Athens", "Athens"),
    ])
    def test_answer_is_cut_after_the_phrase_when_lowercasing_changes_lengths(
            self, step, answer):
        # "İ".lower() is two characters, so offsets in the lowered chain run
        # ahead of the chain's own
        ret = mock_retriever({"q1": [("d1", 1.0)]})
        backend = StubBackend("scripted", default_answer=step)
        out = run(ircot(ret, backend, fields=("query",)),
                  Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        assert out.rows[0]["qanswer"] == answer

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.text(st.one_of(st.just("İ"), st.characters()), max_size=20),
           answer=st.text(st.characters(categories=("L", "N")), min_size=1, max_size=10))
    def test_answer_follows_the_first_exit_phrase(self, prefix, answer):
        step = f"{prefix} so the answer is {answer}."
        assume(step.lower().find("so the answer is") == len(prefix.lower()) + 1)
        assert ircot(mock_retriever({}), StubBackend())._answer(step) == answer

    def test_custom_exit_phrase(self):
        ret = mock_retriever({"q1": [("d1", 1.0)]})
        backend = StubBackend("scripted", default_answer="hence we get 42.")
        loop = ircot(ret, backend, fields=("query",), exit_phrase="hence we get",
                     max_iterations=5)
        out = run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        assert out.rows[0] == {"qid": "q1", "qanswer": "42", "iterations": 1}

    def test_retriever_must_map_q_to_r(self):
        not_a_retriever = FnTransformer(
            Signature(SemType.R, SemType.R), "rr", lambda f: f)
        with pytest.raises(TypeMismatch):
            ircot(not_a_retriever, StubBackend())

    def test_bad_max_iterations(self):
        with pytest.raises(ValueError):
            ircot(mock_retriever({}), StubBackend(), max_iterations=0)
        for bad in (0, -1, 1.5, True):
            for name in ("max_iterations", "docs_per_iteration"):
                with pytest.raises(InvalidK, match=name):
                    ircot(mock_retriever({}), StubBackend(), **{name: bad})

    @pytest.mark.parametrize("bad", [0, -3, 60.5, None])
    def test_the_backends_budget_is_checked_when_the_loop_is_built(self, bad):
        with pytest.raises(InvalidK, match="max_input_chars"):
            ircot(mock_retriever({}), RecordingBackend(max_input_chars=bad))

    def test_any_field_name_reaches_the_prompt(self):
        def apply(frame):
            return assign_ranks([{"qid": r["qid"], "query": r["query"], "docno": "d1",
                                  "score": 1.0, "text2": "alpha", "my-field": "beta"}
                                 for r in frame.rows])

        backend = RecordingBackend("so the answer is x")
        ret = FnTransformer(Signature(SemType.Q, SemType.R), "odd_fields", apply)
        out = run(ircot(ret, backend, fields=("text2", "my-field")),
                  Frame(SemType.Q, [{"qid": "q1", "query": "which"}]))
        assert out.rows[0]["qanswer"] == "x"
        assert backend.prompts[0][0] == DEFAULT_ITERATIVE_TEMPLATE.render_user(
            "which", "alpha\nbeta")

    def test_structural_equality_with_phrase_exit(self):
        # the phrase is compared in lower case, so its case is not identity
        a = ircot(mock_retriever({"q": []}), StubBackend(), exit_phrase="Done")
        b = ircot(mock_retriever({"x": []}), StubBackend(), exit_phrase="done")
        assert a == b and hash(a) == hash(b)
        assert a != ircot(mock_retriever({}), StubBackend(), exit_phrase="finished")

    @pytest.mark.parametrize("bad", [5, None, b"done"])
    def test_a_non_str_exit_phrase_is_refused(self, bad):
        with pytest.raises(TypeError, match="exit_phrase must be a str"):
            ircot(mock_retriever({}), StubBackend(), exit_phrase=bad)

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"])
    def test_a_blank_exit_phrase_is_refused(self, blank):
        # a blank phrase would be in every step and stop every question at once
        with pytest.raises(ValueError, match="exit_phrase must not be blank"):
            ircot(mock_retriever({}), StubBackend(), exit_phrase=blank)

    @pytest.mark.parametrize("n_answers", [0, 2])
    def test_misbehaving_backend_is_reported(self, n_answers):
        class Miscounting(Backend):
            descriptor = "miscounting"

            def generate(self, prompts, system=""):
                return ["so the answer is x"] * n_answers

        loop = ircot(mock_retriever({"q1": [("d1", 1.0)]}), Miscounting(),
                     fields=("query",))
        with pytest.raises(PipelineError) as err:
            run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        assert isinstance(err.value.cause, BackendError)

    def test_a_retriever_failure_is_reported_at_the_ircot_stage(self):
        def flaky(frame):
            raise RuntimeError("index offline")

        loop = ircot(FnTransformer(Signature(SemType.Q, SemType.R), "flaky", flaky),
                     StubBackend())
        with pytest.raises(PipelineError) as err:
            run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        # the inner run's path is relative to ircot's own retrieval pipeline
        assert err.value.path == "ircot"
        inner = err.value.cause
        assert isinstance(inner, PipelineError)
        assert inner.path == "rank_cutoff.child/flaky"
        assert isinstance(inner.cause, RuntimeError)
        assert str(err.value) == "error at ircot: error at rank_cutoff.child/flaky: index offline"

    def test_missing_context_field_is_reported(self):
        ret = mock_retriever({"q1": [("d1", 1.0)]})  # rows carry no text column
        loop = ircot(ret, StubBackend(), fields=("text",))
        with pytest.raises(PipelineError) as err:
            run(loop, Frame(SemType.Q, [{"qid": "q1", "query": "x"}]))
        assert isinstance(err.value.cause, MissingField)


def _doc_retriever(texts):
    """Q -> R: every query retrieves the same ranked docs with text."""

    def apply(frame):
        return assign_ranks([
            {"qid": r["qid"], "docno": f"d{i}", "score": float(len(texts) - i),
             "query": r["query"], "text": text}
            for r in frame.rows for i, text in enumerate(texts)
        ])

    return FnTransformer(Signature(SemType.Q, SemType.R), "docs", apply)


class ScriptedSteps(RecordingBackend):
    """Records prompts and answers the i-th generate call with steps[i]."""

    def __init__(self, steps, max_input_chars):
        super().__init__(max_input_chars=max_input_chars)
        self.steps = steps

    def generate(self, prompts, system=""):
        super().generate(prompts, system)
        return [self.steps[len(self.prompts) - 1]]


@settings(max_examples=200, deadline=None)
@given(
    question=st.text(max_size=40),
    texts=st.lists(st.text(max_size=300), max_size=6),
    steps=st.lists(st.text(max_size=60), min_size=1, max_size=4),
    slack=st.integers(0, 600),
)
def test_ircot_prompts_fit_the_budget_and_keep_the_question(question, texts, steps, slack):
    chain = " ".join(steps[:-1])
    overhead = len(DEFAULT_ITERATIVE_TEMPLATE.render_user(question))
    budget = overhead + (len("\n" + chain) if len(steps) > 1 else 0) + slack
    backend = ScriptedSteps(steps, max_input_chars=budget)
    # no step is 200 characters long, even lowercased, so none holds the phrase
    loop = ircot(_doc_retriever(texts), backend, exit_phrase="x" * 200,
                 max_iterations=len(steps), docs_per_iteration=3)
    out = run(loop, Frame(SemType.Q, [{"qid": "q", "query": question}]))
    assert out.rows[0]["iterations"] == len(steps)
    sent = [prompts[0] for prompts in backend.prompts]
    assert len(sent) == len(steps)
    for prompt in sent:
        assert len(prompt) <= budget
        assert f"Question: {question}\nAnswer:" in prompt


@pytest.mark.parametrize("steps, answer, iterations", [
    (["no", "SO THE ANSWER IS Rome!", "x"], "Rome", 2),
    # a phrase split across two steps is in neither, so the loop goes on
    (["So the", "Answer is Paris.", "more"], "Paris. more", 3),
])
def test_a_question_stops_at_its_first_step_holding_the_exit_phrase(steps, answer, iterations):
    backend = ScriptedSteps(steps, max_input_chars=10**6)
    loop = ircot(mock_retriever({"q": [("d1", 1.0)]}), backend, fields=("query",),
                 max_iterations=3)
    out = run(loop, Frame(SemType.Q, [{"qid": "q", "query": "which city"}]))
    assert out.rows[0] == {"qid": "q", "qanswer": answer, "iterations": iterations}
    assert len(backend.prompts) == iterations


_CASED = st.sampled_from("aAbB \u0130i")


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.text(_CASED, max_size=6), min_size=1, max_size=5),
       phrase=st.text(_CASED, min_size=1, max_size=3).filter(str.strip))
def test_the_exit_phrase_alone_decides_when_a_question_stops(steps, phrase):
    backend = ScriptedSteps(steps, max_input_chars=10**6)
    loop = ircot(mock_retriever({"q": [("d1", 1.0)]}), backend, fields=("query",),
                 exit_phrase=phrase, max_iterations=len(steps))
    out = run(loop, Frame(SemType.Q, [{"qid": "q", "query": "which"}]))
    stops = [i + 1 for i, s in enumerate(steps) if phrase.lower() in s.lower()]
    assert out.rows[0]["iterations"] == (stops or [len(steps)])[0]


def _word_retriever():
    """Q -> R: one doc per distinct query word, so each step's context
    depends on the query text the loop retrieved with."""

    def apply(frame):
        rows = []
        for r in frame.rows:
            words = dict.fromkeys(r["query"].split())
            rows += [{"qid": r["qid"], "docno": w, "score": float(len(words) - i),
                      "query": r["query"], "text": f"about {w}"}
                     for i, w in enumerate(words)]
        return assign_ranks(rows)

    return FnTransformer(Signature(SemType.Q, SemType.R), "words", apply)


class PerQuestionSteps(RecordingBackend):
    """Answers by question: the n-th prompt seen for a question gets step n,
    which exits when n is that question's exit step (None: never)."""

    def __init__(self, exits, max_input_chars=1_000_000):
        super().__init__(max_input_chars=max_input_chars)
        self.exits = exits

    def sent(self, question):
        return [p for batch in self.prompts for p in batch
                if f"Question: {question}\n" in p]

    def generate(self, prompts, system=""):
        super().generate(prompts, system)
        answers = []
        for prompt in prompts:
            q = next(q for q in self.exits if f"Question: {q}\n" in prompt)
            n = len(self.sent(q))
            answers.append(f"so the answer is {q} {n}" if n == self.exits[q]
                           else f"step {n} of {q}")
        return answers


def test_ircot_answers_each_question_of_a_frame_as_if_alone():
    exits = {"alpha first": 1, "beta second": 2, "gamma third": None}
    frame = Frame(SemType.Q, [{"qid": f"q{i}", "query": q} for i, q in enumerate(exits)])

    def stage(backend):
        return ircot(_word_retriever(), backend, max_iterations=3)

    together = PerQuestionSteps(exits)
    rows = {r["qid"]: r for r in run(stage(together), frame).rows}
    assert [rows[f"q{i}"]["iterations"] for i in range(3)] == [1, 2, 3]
    for row, question in zip(frame.rows, exits):
        alone = PerQuestionSteps(exits)
        [single] = run(stage(alone), Frame(SemType.Q, [row])).rows
        assert single == rows[row["qid"]]
        assert together.sent(question) == alone.sent(question)


@settings(max_examples=150, deadline=None)
@given(
    spec=st.lists(st.tuples(st.one_of(st.none(), st.integers(1, 5)),
                            st.lists(st.sampled_from(["red", "tall", "old"]), max_size=3)),
                  min_size=1, max_size=6),
    order=st.permutations(range(6)),
    max_iterations=st.integers(1, 5),
    docs_per_iteration=st.integers(1, 3),
    budget=st.integers(40, 400),
)
def test_ircot_rounds_answer_each_question_as_if_alone(
        spec, order, max_iterations, docs_per_iteration, budget):
    # qids sort in another order than the frame's rows; small budgets make
    # some questions' prompts, chain included, too long to send
    questions = {f"q{order[i]}": " ".join([f"w{i}", *words])
                 for i, (_, words) in enumerate(spec)}
    exits = {q: exit_step for q, (exit_step, _) in zip(questions.values(), spec)}

    def attempt(rows):
        backend, counts = PerQuestionSteps(exits, max_input_chars=budget), {"runs": 0}
        loop = ircot(counted(_word_retriever(), counts, "runs"), backend,
                     max_iterations=max_iterations, docs_per_iteration=docs_per_iteration)
        try:
            out = run(loop, Frame(SemType.Q, rows))
        except PipelineError as err:
            return backend, counts, type(err.cause)
        return backend, counts, {r["qid"]: r for r in out.rows}

    rows = [{"qid": qid, "query": q} for qid, q in questions.items()]
    together, counts, result = attempt(rows)
    alone = {row["qid"]: attempt([row]) for row in rows}
    failures = {res for _, _, res in alone.values() if isinstance(res, type)}
    if failures:
        assert isinstance(result, type) and result in failures
        return
    assert list(result) == sorted(questions)
    for qid, (backend, _, single) in alone.items():
        assert single == {qid: result[qid]}
        assert together.sent(questions[qid]) == backend.sent(questions[qid])
    rounds = max(r["iterations"] for r in result.values())
    assert len(together.prompts) == counts["runs"] == rounds
