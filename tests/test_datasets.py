import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ragkit.datasets import (
    DatasetRegistry,
    convert_qa_corpus,
    convert_qa_topics,
    load_answers,
    load_corpus,
    load_topics,
    read_run,
    run_lines,
    write_run,
)
from ragkit.errors import (
    EmptyGold,
    MissingField,
    MissingSplit,
    ParseError,
    UnknownDataset,
)
from ragkit.frame import Frame, SemType, assign_ranks, validate
from ragkit.index import BM25Retriever, index_corpus
from ragkit.transformer import run

FIXTURES = Path(__file__).parent / "fixtures" / "nq_mini"


class TestCorpusLoading:
    def test_streams_documents_with_extras(self):
        docs = list(load_corpus(FIXTURES / "corpus.jsonl"))
        assert len(docs) == 60
        assert docs[0]["docno"] == "doc000"
        assert "Paris" in docs[0]["text"]
        assert docs[0]["title"] == "Paris"

    def test_multiple_files_concatenate_in_order(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps({"docno": "d1", "text": "x"}) + "\n")
        b.write_text(json.dumps({"docno": "d2", "text": "y"}) + "\n")
        assert [d["docno"] for d in load_corpus([a, b])] == ["d1", "d2"]

    def test_coerces_ids_to_strings(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"docno": 17, "text": 3.5}) + "\n")
        doc = next(load_corpus(p))
        assert doc["docno"] == "17" and doc["text"] == "3.5"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('\n{"docno": "d", "text": "x"}\n\n')
        assert len(list(load_corpus(p))) == 1

    def test_errors_carry_file_and_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"docno": "d", "text": "x"}\n{bad json\n')
        with pytest.raises(ParseError) as err:
            list(load_corpus(p))
        assert err.value.line == 2
        p.write_text('["array"]\n')
        with pytest.raises(ParseError):
            list(load_corpus(p))
        p.write_text('{"docno": "d"}\n')
        with pytest.raises(MissingField):
            list(load_corpus(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            list(load_corpus(tmp_path / "nope.jsonl"))


class TestTopicsAndAnswers:
    def test_load_topics(self):
        topics = load_topics(FIXTURES / "topics_dev.jsonl")
        assert topics.semtype is SemType.Q
        assert len(topics) == 50
        assert topics.rows[0] == {"qid": "nq000",
                                  "query": "what is the capital of France"}

    def test_load_answers(self):
        gold = load_answers(FIXTURES / "answers_dev.jsonl")
        assert gold.semtype is SemType.GA
        assert len(gold) == 50
        assert gold.rows[0] == {"qid": "nq000", "ganswer": ["Paris"]}
        by_qid = {r["qid"]: r["ganswer"] for r in gold.rows}
        assert by_qid["nq019"] == ["Kyiv", "Kiev"]

    def test_topics_field_errors(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"qid": "q1"}\n')
        with pytest.raises(MissingField):
            load_topics(p)

    def test_answers_must_be_non_empty_lists(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text('{"qid": "q1", "answers": []}\n')
        with pytest.raises(EmptyGold):
            load_answers(p)
        p.write_text('{"qid": "q1", "answers": "just a string"}\n')
        with pytest.raises(EmptyGold):
            load_answers(p)


class TestRunFiles:
    FRAME = assign_ranks([
        {"qid": "q2", "docno": "d1", "score": 0.5},
        {"qid": "q1", "docno": "d2", "score": 1.25},
        {"qid": "q1", "docno": "d1", "score": 2.0},
    ])

    def test_write_format(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(self.FRAME, path, tag="sys1")
        assert path.read_text().splitlines() == [
            "q1 Q0 d1 0 2.000000 sys1",
            "q1 Q0 d2 1 1.250000 sys1",
            "q2 Q0 d1 0 0.500000 sys1",
        ]

    def test_run_lines_matches_write_run(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(self.FRAME, path, tag="t")
        assert run_lines(self.FRAME, tag="t") == path.read_text().splitlines()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(self.FRAME, path)
        loaded = read_run(path)
        assert loaded.semtype is SemType.R
        got = {(r["qid"], r["docno"]): (r["rank"], r["score"]) for r in loaded.rows}
        assert got == {("q1", "d1"): (0, 2.0), ("q1", "d2"): (1, 1.25),
                       ("q2", "d1"): (0, 0.5)}

    def test_read_rejects_malformed_lines(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 0 1.0\n")
        with pytest.raises(ParseError) as err:
            read_run(p)
        assert "6 columns" in str(err.value)
        p.write_text("q1 Q0 d1 zero 1.0 tag\n")
        with pytest.raises(ParseError):
            read_run(p)

    def test_read_validates_rank_invariants(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 d1 1 1.000000 tag\n")  # rank 1 with no rank 0
        with pytest.raises(Exception):
            read_run(p)

    @pytest.mark.parametrize("tag", ["", "my run", "a\tb", "t\n", " t", None, 5])
    def test_a_tag_read_run_could_not_read_back_is_refused(self, tmp_path, tag):
        with pytest.raises(ValueError, match="run tag"):
            run_lines(self.FRAME, tag=tag)
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="run tag"):
            write_run(self.FRAME, path, tag=tag)
        assert not path.exists()
        # refused before any line is built, so before the frame is checked
        with pytest.raises(ValueError, match="run tag"):
            run_lines(Frame(SemType.R, [{"qid": "q1"}]), tag=tag)

    @pytest.mark.parametrize("qid, docno", [("q 1", "d1"), ("q1", "d 1"), ("q1", ""),
                                            ("\tq1", "d1"), ("q1", "d1\x1c")])
    def test_a_qid_or_docno_read_run_could_not_read_back_is_refused(self, tmp_path,
                                                                     qid, docno):
        frame = assign_ranks([{"qid": "q0", "docno": "d0", "score": 2.0},
                              {"qid": qid, "docno": docno, "score": 1.0}])
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="run file (qid|docno) must be"):
            write_run(frame, path)
        assert not path.exists()


@pytest.mark.parametrize("name, text, read, message", [
    ("c.jsonl", '{"docno": "a", "text": "x"}\n\n  \nnot json\n', load_corpus,
     "{p}:4: Expecting value: line 1 column 1 (char 0)"),
    ("c.jsonl", '{"docno": "a", "text": "x"}\n[1, 2]\n', load_corpus,
     "{p}:2: line is not a JSON object"),
    ("c.jsonl", '\n{"docno": "a"}\n', load_corpus, "missing field 'text' ({p}:2)"),
    ("t.jsonl", '\n{"qid": "a"}\n', lambda p: load_topics(p, "dev"),
     "missing field 'query' ({p}:2 (dev))"),
    ("r.run", "q1 Q0 d1 0 1.0 t\n\nq1 Q0 d2 1 0.5\n", read_run,
     "{p}:3: expected 6 columns, got 5"),
    ("r.run", "q1 Q0 d1 zero 1.0 t\n", read_run,
     "{p}:1: invalid literal for int() with base 10: 'zero'"),
    ("r.run", "\n\nq1 Q0 d1 0 high t\n", read_run,
     "{p}:3: could not convert string to float: 'high'"),
])
def test_readers_name_file_and_line_in_their_errors(tmp_path, name, text, read, message):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    with pytest.raises((ParseError, MissingField)) as err:
        list(read(p))
    assert str(err.value) == message.format(p=p)
    with pytest.raises(ParseError) as err:
        list(read(tmp_path / "missing"))
    assert str(err.value) == f"{tmp_path / 'missing'}: file not found"


def _reference_lines(rows, tag):
    ordered = sorted(rows, key=lambda r: (r["qid"], r["rank"]))
    return [f"{r['qid']} Q0 {r['docno']} {r['rank']} {r['score']:.6f} {tag}" for r in ordered]


@st.composite
def _ranked_layouts(draw):
    """A valid R frame's rows from assign_ranks over several qids, laid out
    as ranked, with qids descending, or shuffled. Scores include ints that
    a float64 cannot hold exactly and infinities; qids and docnos may
    contain `%`."""
    rows = []
    for qid in draw(st.lists(st.sampled_from(["q1", "q10", "q2", "Q3", "é", "q%d", "%"]),
                             min_size=1, max_size=4, unique=True)):
        scores = draw(st.lists(st.one_of(st.floats(-5, 5, allow_nan=False), st.integers(-5, 5),
                                         st.integers(2**53 + 1, 2**64),
                                         st.integers(-2**64, -2**53 - 1),
                                         st.sampled_from([float("inf"), float("-inf")])),
                               min_size=1, max_size=5))
        prefix = draw(st.sampled_from(["d", "d%", "%s"]))
        rows += [{"qid": qid, "docno": f"{prefix}{len(rows) + i}", "score": s}
                 for i, s in enumerate(scores)]
    rows = list(assign_ranks(rows).rows)
    layout = draw(st.sampled_from(["ranked", "qids descending", "shuffled"]))
    if layout == "qids descending":
        rows = sorted(sorted(rows, key=lambda r: r["rank"]), key=lambda r: r["qid"], reverse=True)
    elif layout == "shuffled":
        rows = draw(st.permutations(rows))
    return rows


@settings(max_examples=300, deadline=None)
@given(_ranked_layouts(), st.sampled_from(["frame", "read_run"]), st.booleans())
def test_run_lines_sorts_by_qid_then_rank_in_any_row_order(tmp_path_factory, rows, source,
                                                           checked_first):
    if source == "read_run":
        path = tmp_path_factory.mktemp("run") / "run.txt"
        path.write_text("".join(f"{line}\n" for line in _reference_lines(rows, "t")[::-1]))
        frame = read_run(path)
    else:
        frame = Frame(SemType.R, rows)
    if checked_first:
        validate(frame, SemType.R)
    want = _reference_lines(frame.rows, "t")
    assert run_lines(frame, tag="t") == want
    path = tmp_path_factory.mktemp("out") / "run.txt"
    write_run(frame, path, tag="t")
    assert path.read_text().splitlines() == want


def test_run_lines_of_a_retriever_frame_with_descending_qids():
    idx = index_corpus([{"docno": f"d{i}", "text": text}
                        for i, text in enumerate(["ant bee", "bee cat", "cat dog ant"])])
    q = Frame(SemType.Q, [{"qid": "q2", "query": "ant"}, {"qid": "q1", "query": "cat bee"}])
    out = run(BM25Retriever(idx), q)
    assert [r["qid"] for r in out.rows] == ["q2", "q2", "q1", "q1", "q1"]
    assert run_lines(out) == _reference_lines(out.rows, "run")


@pytest.mark.parametrize("name, read", [
    ("corpus.jsonl", lambda p: list(load_corpus(p))),
    ("topics_dev.jsonl", load_topics),
    ("answers_dev.jsonl", load_answers),
    ("run", read_run),
])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, name, read):
    if name == "run":
        text = "".join(line + "\n" for line in run_lines(TestRunFiles.FRAME))
    else:
        text = (FIXTURES / name).read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read(marked) == read(plain)


class TestRegistry:
    def test_load_and_resolve(self):
        reg = DatasetRegistry.load(FIXTURES / "registry.cfg")
        assert reg.names() == ["nq_mini"]
        assert reg.splits("nq_mini") == ["dev"]
        assert len(list(reg.get_corpus("nq_mini"))) == 60
        assert len(reg.get_topics("nq_mini", "dev")) == 50
        assert len(reg.get_answers("nq_mini", "dev")) == 50

    def test_paths_resolve_relative_to_manifest(self):
        reg = DatasetRegistry.load(FIXTURES / "registry.cfg")
        assert reg.corpus_paths("nq_mini") == [FIXTURES / "corpus.jsonl"]
        assert reg.topics_path("nq_mini", "dev") == FIXTURES / "topics_dev.jsonl"

    def test_unknown_dataset(self):
        reg = DatasetRegistry.load(FIXTURES / "registry.cfg")
        with pytest.raises(UnknownDataset) as err:
            reg.get_topics("trivia", "dev")
        assert "nq_mini" in str(err.value)

    def test_missing_split(self):
        reg = DatasetRegistry.load(FIXTURES / "registry.cfg")
        with pytest.raises(MissingSplit) as err:
            reg.topics_path("nq_mini", "test")
        assert "dev" in str(err.value)
        with pytest.raises(MissingSplit):
            reg.answers_path("nq_mini", "test")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("[ds]\ncorpus = c.jsonl\nshards = 4\n")
        with pytest.raises(ParseError) as err:
            DatasetRegistry.load(cfg)
        assert "shards" in str(err.value)

    def test_bad_ini_and_missing_file(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("not an ini file at all [[[")
        with pytest.raises(ParseError):
            DatasetRegistry.load(cfg)
        with pytest.raises(ParseError):
            DatasetRegistry.load(tmp_path / "absent.cfg")

    def test_multiple_corpus_files(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"docno": "d1", "text": "x"}) + "\n")
        (tmp_path / "b.jsonl").write_text(
            json.dumps({"docno": "d2", "text": "y"}) + "\n")
        (tmp_path / "r.cfg").write_text("[ds]\ncorpus = a.jsonl b.jsonl\n")
        reg = DatasetRegistry.load(tmp_path / "r.cfg")
        assert [d["docno"] for d in reg.get_corpus("ds")] == ["d1", "d2"]


class TestConverters:
    def test_convert_corpus(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_text(
            json.dumps({"id": 1, "contents": "body one", "lang": "en"}) + "\n" +
            json.dumps({"id": "two", "contents": "body two"}) + "\n")
        dst = tmp_path / "corpus.jsonl"
        assert convert_qa_corpus(src, dst) == 2
        docs = list(load_corpus(dst))
        assert docs[0] == {"docno": "1", "text": "body one", "lang": "en"}
        assert docs[1] == {"docno": "two", "text": "body two"}

    def test_convert_corpus_field_errors(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_text(json.dumps({"contents": "no id"}) + "\n")
        with pytest.raises(MissingField):
            convert_qa_corpus(src, tmp_path / "out.jsonl")

    def test_convert_topics(self, tmp_path):
        src = tmp_path / "qa.jsonl"
        src.write_text(
            json.dumps({"id": "q1", "question": "who", "golden_answers": ["x", 2]})
            + "\n")
        topics_dst, answers_dst = tmp_path / "t.jsonl", tmp_path / "a.jsonl"
        assert convert_qa_topics(src, topics_dst, answers_dst) == 1
        topics = load_topics(topics_dst)
        gold = load_answers(answers_dst)
        assert topics.rows[0] == {"qid": "q1", "query": "who"}
        assert gold.rows[0] == {"qid": "q1", "ganswer": ["x", "2"]}

    def test_convert_topics_requires_gold(self, tmp_path):
        src = tmp_path / "qa.jsonl"
        src.write_text(
            json.dumps({"id": "q1", "question": "who", "golden_answers": []}) + "\n")
        with pytest.raises(EmptyGold):
            convert_qa_topics(src, tmp_path / "t.jsonl", tmp_path / "a.jsonl")
