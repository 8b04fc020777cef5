import pytest

from hypothesis import given, settings, strategies as st

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
    PromptTemplate,
    StubBackend,
    concatenate_context,
    ircot,
    phrase_exit,
    _fit_prompt,
    reader,
    render_prompt,
    zero_shot,
)
from ragkit.transformer import FnTransformer, Signature, run

from conftest import counting_retriever, mock_retriever


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

    def test_empty_input(self):
        out = run(concatenate_context(), Frame(SemType.R, ()))
        assert len(out) == 0


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

    def test_structural_equality_with_phrase_exit(self):
        a = ircot(mock_retriever({"q": []}), StubBackend(),
                  exit_condition=phrase_exit("done"))
        b = ircot(mock_retriever({"x": []}), StubBackend(),
                  exit_condition=phrase_exit("done"))
        assert a == b
        # ad hoc lambdas have no stable identity, so these differ
        c = ircot(mock_retriever({}), StubBackend(), exit_condition=lambda r: True)
        d = ircot(mock_retriever({}), StubBackend(), exit_condition=lambda r: True)
        assert c != d

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
    loop = ircot(_doc_retriever(texts), backend, exit_condition=lambda row: False,
                 max_iterations=len(steps), docs_per_iteration=3)
    out = run(loop, Frame(SemType.Q, [{"qid": "q", "query": question}]))
    assert out.rows[0]["iterations"] == len(steps)
    sent = [prompts[0] for prompts in backend.prompts]
    assert len(sent) == len(steps)
    for prompt in sent:
        assert len(prompt) <= budget
        assert f"Question: {question}\nAnswer:" in prompt
