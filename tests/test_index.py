import hashlib
import json
import math
import os
import random
import re
import shutil
import sys
import tempfile
import threading
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ragkit.frame
import ragkit.index
from ragkit.datasets import load_corpus, run_lines
from ragkit.errors import (
    DuplicateDocno,
    InvalidK,
    MissingField,
    ParseError,
    UnknownDocno,
)
from ragkit.eval import experiment
from ragkit.exprs import print_expr
from ragkit.frame import Frame, SemType
from ragkit.index import (
    FORMAT_VERSION,
    MANIFEST,
    BM25Params,
    BM25Retriever,
    Indexer,
    InvertedIndex,
    Tokenizer,
    _csr,
    _file_names,
    attach_text,
    bm25_retriever,
    bm25_score,
    index_corpus,
    indexer,
)
from ragkit.rag import Concatenator, StubBackend, ircot, reader, zero_shot
from ragkit.transformer import RankCutoff, Transformer, run

from conftest import random_corpus

# the definition of a token; Tokenizer must agree with it on every text
TOKEN_RE = re.compile(r"[^\W_]+")


def oracle_tokens(text, stopwords=()):
    stop = {w.lower() for w in stopwords}
    return [t for t in TOKEN_RE.findall(text.lower()) if t not in stop]


class RegexTokenizer(Tokenizer):
    """A Tokenizer that always takes the regex path."""

    def tokenize(self, text):
        return oracle_tokens(text, self.stopwords)


# characters where a faster tokenizer could part from the regex: KELVIN SIGN
# lowers to ASCII "k", U+0130 lowers to "i" plus U+0307 COMBINING DOT ABOVE,
# "ß" lowers to itself, superscript two and ARABIC-INDIC DIGIT THREE are
# alphanumeric non-ASCII, NBSP, NEL and LINE SEPARATOR are non-ASCII
# whitespace, U+0307 alone is not alphanumeric, "_" is a word character
# that still separates tokens, and "\u00c9", "\u00e9" and dotless "\u0131" are
# letters next to ASCII ones
EDGE_CHARS = "\u212a\u0130\u00df\u00b2\u0663\u00a0\u0085\u2028\u0307_\u00c9\u00e9\u0131"
ASCII_AND_EDGE = [chr(i) for i in range(128)] + list(EDGE_CHARS)

MIXED_CORPUS = [
    {"docno": "a1", "text": "The Quick-Brown FOX!! jumped_over (the) lazy dog... 42times"},
    {"docno": "a2", "text": "e-mail: x.y@example.com; tel +1-555-0100\tfax\x1c007\x1f"},
    {"docno": "a3", "text": "snake_case and CamelCase, 'quoted' \"double\" [brackets]{x}"},
    {"docno": "u1", "text": "Café naïve—résumé, l'été!"},
    {"docno": "u2", "text": "Straße² and ٣ apples; KELVIN \u212a and \u0130stanbul"},
    {"docno": "u3", "text": "東京タワー is in Tokyo\u00a0(東京)\u2028next line\u0085end"},
    {"docno": "u4", "text": "Ελληνικά κείμενα, русский текст and the fox again"},
    {"docno": "u5", "text": "combining: e\u0301cole cafe\u0301 \u0307dot the end"},
]


class TestTokenizer:
    def test_lowercase_and_split_on_non_alphanumeric(self):
        t = Tokenizer()
        assert t.tokenize("The Quick-Brown FOX!") == ["the", "quick", "brown", "fox"]
        assert t.tokenize("a_b c2d") == ["a", "b", "c2d"]
        assert t.tokenize("") == []
        assert t.tokenize("...") == []

    def test_stopword_removal(self):
        t = Tokenizer(stopwords=["THE", "of"])
        assert t.tokenize("The capital of France") == ["capital", "france"]

    def test_equality(self):
        assert Tokenizer(["a"]) == Tokenizer(["A"])
        assert Tokenizer(["a"]) != Tokenizer()

    def test_unicode_letters_and_digits_are_alphanumeric(self):
        t = Tokenizer()
        assert t.tokenize("Café naïve—résumé, l'été!") == [
            "café", "naïve", "résumé", "l", "été"]
        assert t.tokenize("Straße² ٣ 東京タワー") == ["straße²", "٣", "東京タワー"]
        assert t.tokenize("\u212a") == ["k"]
        # U+0130 lowers to "i" and U+0307, which is not alphanumeric
        assert t.tokenize("\u0130x") == ["i", "x"]

    def test_every_ascii_and_edge_character_alone_and_between_letters(self):
        t = Tokenizer()
        for c in ASCII_AND_EDGE:
            for text in (c, f"a{c}b", f"A{c}B"):
                assert t.tokenize(text) == oracle_tokens(text), repr(text)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           text=st.text(st.sampled_from(ASCII_AND_EDGE), max_size=40) | st.text(max_size=40))
    def test_tokens_are_the_regex_tokens(self, data, text):
        tokens = oracle_tokens(text)
        stopwords = data.draw(st.sets(st.sampled_from(tokens))) if tokens else set()
        assert Tokenizer(stopwords).tokenize(text) == oracle_tokens(text, stopwords)

    @pytest.mark.parametrize("stopwords", [(), ("the", "AND", "café")])
    def test_index_equals_the_regex_tokenizers_index(self, stopwords):
        fast = index_corpus(MIXED_CORPUS, tokenizer=Tokenizer(stopwords))
        regex = index_corpus(MIXED_CORPUS, tokenizer=RegexTokenizer(stopwords))
        assert fast._terms == regex._terms
        assert fast.fingerprint() == regex.fingerprint()


class TestBM25Params:
    def test_defaults(self):
        p = BM25Params()
        assert (p.k1, p.b) == (1.2, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-0.1)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)
        BM25Params(k1=0.0, b=0.0)
        BM25Params(b=1.0)
        BM25Params(k1=2, b=np.float64(0.5))

    @pytest.mark.parametrize("name", ["k1", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1", None])
    def test_a_value_that_is_not_a_finite_number_is_refused(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a finite number, got"):
            BM25Params(**{name: bad})


class TestIndexConstruction:
    def test_statistics(self, small_index):
        idx = small_index
        assert idx.n_docs == 4
        assert idx.avgdl == sum(idx.doclen(i) for i in range(4)) / 4
        assert idx.df("the") == 4
        assert idx.df("paris") == 2
        assert idx.df("unseen") == 0
        doc_ids, tfs = idx.postings("unseen")
        assert doc_ids.tolist() == [] and tfs.tolist() == []
        doc_ids, tfs = idx.postings("paris")
        assert doc_ids.tolist() == sorted(doc_ids.tolist())
        assert len(doc_ids) == len(tfs) == 2

    def test_docno_mapping(self, small_index):
        idx = small_index
        assert idx.doc_id("d3") == 2
        assert idx.docno(2) == "d3" and type(idx.docno(2)) is str
        with pytest.raises(IndexError):
            idx.docno(idx.n_docs)
        with pytest.raises(ValueError, match="read-only"):
            idx._docnos[0] = "zz"
        assert idx.has_docno("d1") and not idx.has_docno("zz")
        with pytest.raises(UnknownDocno):
            idx.doc_id("zz")

    def test_stored_fields(self, small_index):
        stored = small_index.stored(0)
        assert stored["title"] == "Eiffel"
        assert stored["text"].startswith("the eiffel")

    def test_missing_optional_stored_field_becomes_empty(self):
        idx = index_corpus([{"docno": "d", "text": "x"}],
                           fields_to_store=("text", "title"))
        assert idx.stored(0) == {"text": "x", "title": ""}

    def test_stored_values_survive_save_and_load(self, tmp_path):
        docs = [{"docno": "a", "text": "naïve café — 東京 😀", "title": ""},
                {"docno": "b", "text": "", "title": "x\n\u2028y"},
                {"docno": "c", "text": "plain"}]
        idx = index_corpus(docs, fields_to_store=("title", "text"))
        idx.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        want = [{"title": d.get("title", ""), "text": d["text"]} for d in docs]
        assert [idx.stored(i) for i in range(3)] == [loaded.stored(i) for i in range(3)] == want
        q = Frame(SemType.Q, [{"qid": "q", "query": "café plain 東京"}])
        fields = ("text", "title", "absent")
        out = run(BM25Retriever(loaded, include_fields=fields), q)
        assert out == run(BM25Retriever(idx, include_fields=fields), q)
        assert [(r["docno"], r["text"], r["absent"]) for r in out.rows] == \
            [("a", docs[0]["text"], ""), ("c", "plain", "")]

    def test_stored_refuses_a_doc_id_outside_the_index(self, small_index):
        for doc_id in (-1, -2, small_index.n_docs):
            with pytest.raises(IndexError):
                small_index.stored(doc_id)

    def test_a_stored_value_that_is_not_utf8_encodable_is_refused(self):
        with pytest.raises(ValueError, match="'title' of corpus document 'd2'"):
            index_corpus([{"docno": "d1", "text": "a"}, {"docno": "d2", "text": "b",
                                                          "title": "\ud800"}],
                         fields_to_store=("text", "title"))

    def test_duplicate_docno_rejected(self):
        with pytest.raises(DuplicateDocno):
            index_corpus([{"docno": "d", "text": "a"}, {"docno": "d", "text": "b"}])

    def test_required_fields(self):
        with pytest.raises(MissingField):
            index_corpus([{"text": "no docno"}])
        with pytest.raises(MissingField):
            index_corpus([{"docno": "d"}])

    def test_index_corpus_and_load_set_the_index_once(self, small_index, tmp_path,
                                                       monkeypatch):
        small_index.save(tmp_path / "idx")
        calls = []
        set_parts = InvertedIndex._set

        def counted(self, *args, **kwargs):
            calls.append(self)
            return set_parts(self, *args, **kwargs)

        monkeypatch.setattr(InvertedIndex, "_set", counted)
        built = index_corpus(MIXED_CORPUS)
        assert calls == [built]
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert calls == [built, loaded]
        assert loaded == small_index
        assert InvertedIndex().n_docs == 0

    def test_empty_corpus_is_valid(self):
        idx = index_corpus([])
        assert idx.n_docs == 0 and idx.avgdl == 0.0 and idx.n_terms == 0

    def test_fixture_corpus_builds_the_same_bytes(self):
        # any change to the build that moves one byte of the index fails here
        corpus = Path(__file__).parent / "fixtures" / "nq_mini" / "corpus.jsonl"
        idx = index_corpus(load_corpus(corpus))
        assert (idx.n_docs, idx.n_terms) == (60, 208)
        assert idx.fingerprint() == \
            "77f490b381cadb30b722b54827b7d83c4d05364017614cb643dad35b4fa74793"


# -- CSR build ---------------------------------------------------------------------


def oracle_csr(token_ids, doclens, n_terms):
    """The CSR arrays through int64 keys, np.unique and np.divmod."""
    lens = np.asarray(doclens, dtype=np.int32)
    n_docs = len(lens)
    keys = np.asarray(token_ids, dtype=np.int64) * n_docs
    keys += np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    keys, tfs = np.unique(keys, return_counts=True)
    terms, doc_ids = np.divmod(keys, max(n_docs, 1))
    indptr = np.zeros(n_terms + 1, np.int64)
    np.cumsum(np.bincount(terms, minlength=n_terms), out=indptr[1:])
    return {"indptr": indptr, "doc_ids": doc_ids.astype(np.int32),
            "tfs": tfs.astype(np.int32), "doclens": lens}


@st.composite
def _token_streams(draw):
    """(token term ids in document order, doclens, n_terms). The int32 key
    limit n_terms * n_docs < 2**31 is reached with many empty documents,
    and some tokens sit at the largest term and doc ids."""
    n_terms = draw(st.sampled_from([0, 1, 3, 40, 2**15]))
    n_docs = draw(st.sampled_from([0, 1, 2, 7, 2**16 - 1, 2**16]))
    tokens = []
    if n_terms and n_docs:
        def ids(n):
            # low ids repeat, so tfs above 1 are common; n - 1 is the largest
            return st.integers(0, min(n, 3) - 1) | st.just(n - 1) | st.integers(0, n - 1)
        tokens = draw(st.lists(st.tuples(ids(n_docs), ids(n_terms)), max_size=40))
    # documents in doc id order; a document's tokens keep their drawn order
    tokens.sort(key=lambda t: t[0])
    doclens = np.bincount([d for d, _ in tokens], minlength=n_docs)
    return [t for _, t in tokens], doclens.tolist(), n_terms


@settings(max_examples=300, deadline=None)
@given(_token_streams())
@example(([], [], 0))                          # empty corpus
@example(([0, 0, 2, 1], [4], 3))               # one document
@example(([2**15 - 1, 0, 2**15 - 1], [1] + [0] * (2**16 - 3) + [2], 2**15))  # int32 keys
@example(([2**15 - 1, 0, 2**15 - 1], [1] + [0] * (2**16 - 2) + [2], 2**15))  # int64 keys
def test_csr_equals_the_unique_divmod_oracle(stream):
    token_ids, doclens, n_terms = stream
    # _csr consumes its token buffer, so each call gets fresh ones
    got = _csr(array("i", token_ids), array("i", doclens), n_terms)
    want = oracle_csr(array("i", token_ids), array("i", doclens), n_terms)
    assert list(got) == list(want)
    for name, a in got.items():
        assert a.dtype == want[name].dtype and a.tobytes() == want[name].tobytes(), name


class TestScoring:
    def test_single_document_constant(self):
        # one doc, dl == avgdl, tf = 1, df = 1:
        # idf = ln((1 - 1 + 0.5)/(1 + 0.5) + 1) = ln(4/3)
        # contrib = idf * (1 * 2.2) / (1 + 1.2 * 1.0) = idf
        idx = index_corpus([{"docno": "d1", "text": "hello world"}])
        got = bm25_score(idx, ["hello"], 0)
        assert got == 0.28768207245178085
        assert got == math.log(4.0 / 3.0)

    def test_two_document_length_normalization(self):
        idx = index_corpus([
            {"docno": "d1", "text": "apple pie"},
            {"docno": "d2", "text": "apple tart with extra flaky crust"},
        ])
        # N=2, df=2, tf=1, avgdl=4; shorter doc scores higher
        assert bm25_score(idx, ["apple"], 0) == 0.2292042428266858
        assert bm25_score(idx, ["apple"], 1) == 0.15136129243271704

    def test_absent_terms_contribute_nothing(self, small_index):
        assert bm25_score(small_index, ["zebra"], 0) == 0.0
        base = bm25_score(small_index, ["paris"], 0)
        assert bm25_score(small_index, ["paris", "zebra"], 0) == base

    def test_repeated_query_terms_add_once_per_occurrence(self, small_index):
        once = bm25_score(small_index, ["paris"], 0)
        twice = bm25_score(small_index, ["paris", "paris"], 0)
        assert twice == once + once

    def test_custom_params_change_scores(self, small_index):
        flat = bm25_score(small_index, ["paris"], 0, BM25Params(k1=0.0, b=0.0))
        # k1 = 0 reduces the contribution to the bare idf
        assert flat == math.log((4 - 2 + 0.5) / (2 + 0.5) + 1.0)


class TestRetriever:
    def test_ranking_and_schema(self, small_index):
        r = bm25_retriever(small_index)
        out = run(r, Frame(SemType.Q, [{"qid": "q1", "query": "capital of france"}]))
        assert out.semtype is SemType.R
        assert out.rows[0]["docno"] == "d3"
        assert [x["rank"] for x in out.rows] == list(range(len(out)))
        assert all(x["query"] == "capital of france" for x in out.rows)
        scores = [x["score"] for x in out.rows]
        assert scores == sorted(scores, reverse=True)

    def test_matches_bm25_score_bit_for_bit(self, small_index):
        r = bm25_retriever(small_index)
        query = "the capital of paris"
        out = run(r, Frame(SemType.Q, [{"qid": "q1", "query": query}]))
        terms = small_index.tokenizer.tokenize(query)
        for row in out.rows:
            doc_id = small_index.doc_id(row["docno"])
            assert row["score"] == bm25_score(small_index, terms, doc_id)

    def test_tie_broken_by_docno(self):
        idx = index_corpus([
            {"docno": "db", "text": "same words here"},
            {"docno": "da", "text": "same words here"},
        ])
        out = run(bm25_retriever(idx),
                  Frame(SemType.Q, [{"qid": "q", "query": "same"}]))
        assert [x["docno"] for x in out.rows] == ["da", "db"]

    def test_num_results_truncates(self, small_index):
        r = bm25_retriever(small_index, num_results=1)
        out = run(r, Frame(SemType.Q, [{"qid": "q", "query": "the"}]))
        assert len(out) == 1

    def test_include_fields(self, small_index):
        r = bm25_retriever(small_index, include_fields=("text", "title"))
        out = run(r, Frame(SemType.Q, [{"qid": "q", "query": "rome"}]))
        assert out.rows[0]["title"] == "Rome"
        assert "colosseum" in out.rows[0]["text"]

    def test_no_match_yields_empty_result(self, small_index):
        out = run(bm25_retriever(small_index),
                  Frame(SemType.Q, [{"qid": "q", "query": "zzz qqq"}]))
        assert len(out) == 0

    def test_query_with_no_tokens(self, small_index):
        out = run(bm25_retriever(small_index),
                  Frame(SemType.Q, [{"qid": "q", "query": "!!!"}]))
        assert len(out) == 0

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "3", None])
    def test_num_results_must_be_a_positive_int(self, small_index, bad):
        with pytest.raises(InvalidK):
            bm25_retriever(small_index, num_results=bad)

    def test_a_cut_shares_the_read_only_impacts(self, small_index):
        r = bm25_retriever(small_index)
        ((_, cut),) = (r % 3)._operands()
        assert cut.num_results == 3 and cut.bm25 is r.bm25
        for stage in (r, r._cut(3), cut):
            run(stage, Frame(SemType.Q, [{"qid": "q", "query": "paris"}]))
        assert list(small_index._impact_memo) == [r.bm25]
        with pytest.raises(ValueError, match="read-only"):
            small_index._impacts(r.bm25)[0] = 1.0

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_impacts_do_not_depend_on_the_build_block(self, small_index, monkeypatch, block):
        params = BM25Params(k1=0.9, b=0.4)
        whole = small_index._impacts(params)
        assert len(whole) > 7  # more postings than any block below
        monkeypatch.setattr(ragkit.index, "_IMPACT_BLOCK", block)
        small_index._impact_memo.clear()  # so that the block loop runs again
        blocked = small_index._impacts(params)
        assert blocked is not whole and blocked.tobytes() == whole.tobytes()

    def test_equal_retrievers_share_one_array_and_other_params_get_their_own(
            self, small_index):
        q = Frame(SemType.Q, [{"qid": "q", "query": "paris capital"}])
        tuned = BM25Params(k1=0.9)
        built = [bm25_retriever(small_index), bm25_retriever(small_index, BM25Params()),
                 bm25_retriever(small_index) % 2, bm25_retriever(small_index, tuned)]
        outs = [run(stage, q) for stage in built]
        assert list(small_index._impact_memo) == [BM25Params(), tuned]
        assert outs[2].rows == outs[0].rows[:2]
        default, other = small_index._impact_memo.values()
        assert default is small_index._impacts(BM25Params(1.2, 0.75))
        assert other is not default

    def test_constructing_comparing_and_cutting_build_no_array(self, small_index):
        r, twin = (bm25_retriever(small_index, num_results=5) for _ in range(2))
        assert r == twin and hash(r) == hash(twin) and r != r._cut(2)
        assert (r % 2)._operands()[0][1].num_results == 2
        assert small_index._impact_memo == {}

    def test_threads_applying_one_fresh_retriever_at_once_share_one_array(self, monkeypatch):
        index = index_corpus(random_corpus(random.Random(5), 2000, vocab_size=60))
        r = bm25_retriever(index, num_results=50)
        q = Frame(SemType.Q, [{"qid": "q", "query": "t1 t2 t3 t4 t5"}])
        barrier, outs, used = threading.Barrier(8), [None] * 8, []
        build = InvertedIndex._impacts
        monkeypatch.setattr(InvertedIndex, "_impacts",
                            lambda self, params: used.append(build(self, params)) or used[-1])

        def work(i):
            barrier.wait(timeout=60)
            outs[i] = run(r, q).rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert outs[0] and all(out == outs[0] for out in outs)
        assert len(used) == 8 and all(a is used[0] for a in used)
        assert list(index._impact_memo) == [r.bm25]

    @pytest.mark.parametrize("index", [index_corpus([]), InvertedIndex()],
                             ids=["no_docs", "empty"])
    @pytest.mark.parametrize("query", ["", "paris", "paris paris rome"])
    def test_a_retriever_over_an_empty_index_finds_nothing(self, index, query):
        r = bm25_retriever(index, include_fields=("text",))
        assert len(index._impacts(r.bm25)) == 0
        out = run(r, Frame(SemType.Q, [{"qid": "q", "query": query}]))
        assert out.semtype is SemType.R and len(out) == 0


def _reference_apply(retriever, frame):
    """The rows of BM25Retriever.apply as it built them before it emitted
    ranked segments: one dict per result, built as soon as it is ranked.
    Every doc with a positive score is ranked by (-score, docno)."""
    idx = retriever.index
    n = idx.n_docs
    k1, b = retriever.bm25.k1, retriever.bm25.b
    norm = np.array([k1 * (1.0 - b + b * (idx.doclen(d) / idx.avgdl)) for d in range(n)])
    out_rows = []
    for row in frame.rows:
        acc = np.zeros(n)
        for term in idx.tokenizer.tokenize(row["query"]):
            doc_ids, tfs = idx.postings(term)
            if len(doc_ids) == 0:
                continue
            df = len(doc_ids)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            acc[doc_ids] += idf * (tfs * (k1 + 1.0)) / (tfs + norm[doc_ids])
        ranked = sorted((-score, idx.docno(doc_id), doc_id)
                        for doc_id, score in enumerate(acc.tolist()) if score > 0)
        qid, query = row["qid"], row["query"]
        rows = [
            {"qid": qid, "docno": docno, "score": -neg, "rank": rank, "query": query}
            for rank, (neg, docno, _) in enumerate(ranked[:retriever.num_results])
        ]
        if retriever.include_fields:
            for out, (_, _, doc_id) in zip(rows, ranked):
                stored = idx.stored(doc_id)
                for f in retriever.include_fields:
                    out[f] = stored.get(f, "")
        out_rows += rows
    return out_rows


# docnos whose order is not the ingestion order
_TOP_DOCNOS = ["d5", "d3", "d0", "d4", "d1", "d2"]


class TestTop:
    @pytest.mark.parametrize("acc, k", [
        ([0.5, 0, 2.0, 0, 1.0, 0], 6),  # n <= k
        ([0.5, 0, 2.0, 0, 1.0, 0], 9),
        ([0, 0, 2.0, 0, 1.0, 0], 4),  # n > k, fewer than k docs scored: kth is 0
        ([0.5, 0, 2.0, 0, 1.0, 0], 3),  # exactly k docs scored
        ([3.0, 1.0, 1.0, 0, 1.0, 0.5], 2),  # three docs tie at the k-th score
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 5),  # every doc ties
        ([0, 0, 0, 0, 0, 0], 2),  # nothing scored
    ])
    def test_top_is_the_sorted_positive_scores_cut_to_k(self, acc, k):
        idx = index_corpus([{"docno": d, "text": "x"} for d in _TOP_DOCNOS])
        doc_ids, scores = bm25_retriever(idx, num_results=k)._top(np.array(acc, float))
        want = sorted((-s, _TOP_DOCNOS[d], d) for d, s in enumerate(acc) if s > 0)[:k]
        assert doc_ids.tolist() == [d for _, _, d in want]
        assert scores.dtype == np.float64 and scores.tolist() == [-s for s, _, _ in want]

    @pytest.mark.parametrize("k", [1, 2, 4, 6, 9])
    @pytest.mark.parametrize("query", ["!!!", "zzz qqq", "zzz x zzz", "x"])
    def test_no_tokens_and_unseen_terms_rank_as_the_reference(self, query, k):
        idx = index_corpus([{"docno": d, "text": "x" if d < "d3" else "y"}
                            for d in _TOP_DOCNOS])
        retriever = bm25_retriever(idx, num_results=k, include_fields=("text",))
        topics = Frame(SemType.Q, [{"qid": "q", "query": query}])
        out = retriever.apply(topics)
        (segment,) = out._rows.segments
        assert segment.scores.dtype == np.float64  # with no postings too
        got = out.rows
        assert [list(r.items()) for r in got] == \
            [list(r.items()) for r in _reference_apply(retriever, topics)]
        assert len(got) == (min(k, 3) if "x" in query.split() else 0)


class TestRankedSegments:
    @pytest.mark.parametrize("fields", [(), ("text",), ("title", "text"), ("query",),
                                        ("text", "rank")])
    def test_rows_equal_the_row_building_reference(self, small_index, fields):
        topics = Frame(SemType.Q, [{"qid": "q2", "query": "the capital of paris"},
                                   {"qid": "q1", "query": "rome rome tower"},
                                   {"qid": "q3", "query": "nothing matches"},
                                   {"qid": "q4", "query": "!!!"}])
        retriever = BM25Retriever(small_index, num_results=3, include_fields=fields)
        want = _reference_apply(retriever, topics)
        got = retriever.apply(topics).rows
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want]

    def test_search_and_run_lines_build_no_row_dict(self, monkeypatch):
        rng = np.random.default_rng(5)
        words = np.array(["ant", "bee", "cat", "dog", "eel"])
        idx = index_corpus([{"docno": f"d{i:04d}", "text": " ".join(rng.choice(words, 6))}
                            for i in range(1500)])

        def refuse(segment):
            raise AssertionError("a row dict was built")

        monkeypatch.setattr(ragkit.frame._Segment, "rows", refuse)
        q = Frame(SemType.Q, [{"qid": "q2", "query": "ant bee"}, {"qid": "q1", "query": "cat"}])
        out = run(BM25Retriever(idx, num_results=1000), q)
        lines = run_lines(out)
        assert len(out) == len(lines) == 2000
        assert lines[0].startswith("q1 Q0 ") and lines[-1].startswith("q2 Q0 ")
        monkeypatch.undo()
        assert lines == run_lines(Frame(SemType.R, out.rows))

    @pytest.mark.parametrize("qid, docno", [("q 1", "d1"), ("q1", "d 1"), ("q1", ""),
                                            ("q1", "d\u20281")])
    def test_run_lines_refuse_what_read_run_could_not_split_back(self, qid, docno):
        idx = index_corpus([{"docno": docno, "text": "paris"}])
        out = run(BM25Retriever(idx), Frame(SemType.Q, [{"qid": qid, "query": "paris"}]))
        bad = qid if qid != "q1" else docno
        for frame in (out, Frame(SemType.R, out.rows)):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                run_lines(frame)


@st.composite
def _retrieval_cases(draw):
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 5)))]
    text = st.lists(st.sampled_from(vocab), max_size=6).map(" ".join)
    # few distinct texts over more docs: duplicates make score ties
    texts = draw(st.lists(text, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    # short docnos over an alphabet whose byte order is not ingestion order
    docnos = draw(st.lists(st.text("zaA9_\u00e9", min_size=1, max_size=3),
                           min_size=n, max_size=n, unique=True))
    docs = [{"docno": d, "text": draw(st.sampled_from(texts))} for d in docnos]
    # repeated and unseen query terms
    query = draw(st.lists(st.sampled_from(vocab + ["unseen"]), max_size=5))
    params = BM25Params(k1=draw(st.sampled_from([0.0, 1.2]) | st.floats(0, 3)),
                        b=draw(st.sampled_from([0.0, 0.75, 1.0]) | st.floats(0, 1)))
    # k below, at and above both the matched and the total doc count
    return docs, " ".join(query), params, draw(st.integers(1, n + 3))


@settings(max_examples=300, deadline=None)
@given(_retrieval_cases())
def test_retriever_matches_exhaustive_bm25_score_ranking(case):
    docs, query, params, k = case
    idx = index_corpus(docs)
    terms = idx.tokenizer.tokenize(query)
    matched = [d for d in range(idx.n_docs)
               if set(terms) & set(idx.tokenizer.tokenize(docs[d]["text"]))]
    ranking = sorted(((bm25_score(idx, terms, d, params), idx.docno(d)) for d in matched),
                     key=lambda x: (-x[0], x[1]))[:k]
    out = run(bm25_retriever(idx, bm25=params, num_results=k),
              Frame(SemType.Q, [{"qid": "q", "query": query}]))
    assert [(r["docno"], r["score"]) for r in out.rows] == \
        [(docno, score) for score, docno in ranking]
    assert [r["rank"] for r in out.rows] == list(range(len(ranking)))
    assert all(type(r["score"]) is float for r in out.rows)


# -- rank cutoffs pushed into the retriever --------------------------------------


@st.composite
def _cutoff_cases(draw):
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    words = st.lists(st.sampled_from(vocab), min_size=1, max_size=5).map(" ".join)
    # few distinct texts over more docs make score ties common; docnos are
    # shuffled so that their order is not ingestion order
    texts = draw(st.lists(words, min_size=1, max_size=3))
    order = draw(st.permutations(range(draw(st.integers(1, 15)))))
    docs = [{"docno": f"d{j:02d}", "text": draw(st.sampled_from(texts)), "title": f"t{j}"}
            for j in order]
    queries = draw(st.lists(
        st.lists(st.sampled_from(vocab + ["unseen"]), max_size=4).map(" ".join),
        min_size=1, max_size=4))
    include = draw(st.sampled_from([(), ("text",), ("title", "text", "absent")]))
    k, n, outer = (draw(st.integers(1, 20)) for _ in range(3))
    return docs, queries, include, k, n, outer


@settings(max_examples=200, deadline=None)
@given(_cutoff_cases())
def test_cutoff_over_a_retriever_equals_cutting_its_full_output(case):
    docs, queries, include, k, n, outer = case
    idx = index_corpus(docs, fields_to_store=("text", "title"))
    q = Frame(SemType.Q, [{"qid": f"q{i}", "query": t} for i, t in enumerate(queries)])
    r = BM25Retriever(idx, num_results=n, include_fields=include)
    p = r % k
    text = print_expr(p)
    full = run(r, q)
    out = run(p, q)
    assert out == RankCutoff(r, k)._combine(full)
    assert out == run(BM25Retriever(idx, num_results=min(k, n), include_fields=include), q)
    assert run(p % outer, q) == run(r % min(k, outer), q) \
        == RankCutoff(r, min(k, outer))._combine(full)
    assert (p, hash(p), print_expr(p), r.num_results) == (r % k, hash(r % k), text, n)


class _RecordingRetriever(BM25Retriever):
    """A subclass whose constructor takes a leading argument, as tracing
    wrappers do; each apply records its num_results and its row count."""

    def __init__(self, log, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log

    def apply(self, frame):
        out = super().apply(frame)
        self.log.append((self.num_results, len(out)))
        return out


@pytest.fixture
def common_index():
    # every document matches "common", with distinct scores and texts
    return index_corpus([
        {"docno": f"d{i:02d}", "text": f"common{' pad' * i} w{i % 3}. tail {i}"}
        for i in range(20)
    ])


def _topics(*queries):
    return Frame(SemType.Q, [{"qid": f"q{i}", "query": t} for i, t in enumerate(queries)])


class TestCutoffPushdown:
    def test_subclass_copy_fetches_k_rows_and_leaves_the_original(self, common_index):
        log = []
        sub = _RecordingRetriever(log, common_index, include_fields=("text",))
        q = _topics("common", "common w1")
        out = run(sub % 5, q)
        assert log == [(5, 10)]
        assert sub.num_results == 1000 and sub.log is log
        assert out == run(BM25Retriever(common_index, num_results=5,
                                        include_fields=("text",)), q)

    def test_cutoff_at_or_above_num_results_keeps_the_leaf(self, common_index):
        r = BM25Retriever(common_index, num_results=4)
        assert r._cut(4) is r and r._cut(9) is r
        p = r % 3
        assert p._cut(3) is p and p._cut(2) == r % 2

    def test_each_ircot_round_retrieves_docs_per_iteration_rows(self, common_index):
        log = []
        loop = ircot(_RecordingRetriever(log, common_index, include_fields=("text",)),
                     StubBackend(), max_iterations=2, docs_per_iteration=3)
        out = run(loop, _topics("common", "common w2"))
        assert [r["iterations"] for r in out.rows] == [2, 2]
        assert log == [(3, 6), (3, 6)]

    def test_trace_keeps_every_stage_and_reports_the_cut_leaf(self, common_index):
        seen = []
        p = (BM25Retriever(common_index, include_fields=("text",)) % 10
             >> Concatenator() >> reader(StubBackend()))
        run(p, _topics("common", "common w0", "w1"),
            trace=lambda path, name, n: seen.append((path, name, n)))
        assert [(path, name) for path, name, _ in seen] == [
            ("then.left/then.left/rank_cutoff.child/bm25", "bm25"),
            ("then.left/then.left/rank_cutoff", "rank_cutoff"),
            ("then.left/then.right/concat", "concat"),
            ("then.left/then", "then"),
            ("then.right/reader", "reader"),
            ("then", "then"),
        ]
        assert seen[0][2] == 10 + 10 + 7

    def test_outputs_match_the_uncut_path(self, common_index, monkeypatch):
        topics = _topics("common w1", "common pad w2", "tail 7", "w0 pad")
        gold = Frame(SemType.GA, [{"qid": r["qid"], "ganswer": ["common w1"]}
                                  for r in topics.rows])

        def outputs():
            r = BM25Retriever(common_index, include_fields=("text",))
            systems = [(f"k{k}", r % 10 >> Concatenator(k_docs=k)
                        >> reader(StubBackend("extractive_first_sentence")))
                       for k in (1, 3, 10)] + [("zs", zero_shot(StubBackend()))]
            reports = [experiment(systems, topics, gold, baseline="zs", share_prefix=share)
                       .to_dict() for share in (True, False)]
            for report in reports:
                report.pop("timing")
            assert reports[0] == reports[1]
            answers = []
            for budget in (1_000_000, 150):
                backend = StubBackend(max_input_chars=budget)
                answers.append(run(ircot(r, backend, docs_per_iteration=4), topics))
            return reports[0], answers

        cut = outputs()
        monkeypatch.setattr(BM25Retriever, "_cut", Transformer._cut)
        assert outputs() == cut


def resign(directory):
    """Set the manifest's fingerprint to the hash of the files as they are
    now, as load computes it, so that only load's structural checks stand
    between damaged files and a loaded index."""
    manifest = json.loads((directory / MANIFEST).read_text())
    config = {k: manifest[k] for k in ("stopwords", "stored_fields")}
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    for name in _file_names(len(manifest["stored_fields"])):
        path = directory / name
        data = np.load(path).tobytes() if name.endswith(".npy") else path.read_bytes()
        h.update(f"\n{name} {len(data)}\n".encode())
        h.update(data)
    manifest["fingerprint"] = h.hexdigest()
    (directory / MANIFEST).write_text(json.dumps(manifest))


NQ_MINI = Path(__file__).parent / "fixtures" / "nq_mini" / "corpus.jsonl"


class TestPersistence:
    def test_save_load_round_trip(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert loaded.n_docs == small_index.n_docs
        assert loaded.avgdl == small_index.avgdl
        assert loaded.n_terms == small_index.n_terms
        assert loaded.fingerprint() == small_index.fingerprint()
        # docnos.json holds the docnos as one JSON list of str
        assert (tmp_path / "idx" / "docnos.json").read_bytes() == b'["d1", "d2", "d3", "d4"]'
        q = Frame(SemType.Q, [{"qid": "q", "query": "capital of france"}])
        assert run(bm25_retriever(loaded), q) == run(bm25_retriever(small_index), q)

    def test_retrievers_over_equal_indexes_compare_equal(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert bm25_retriever(loaded) == bm25_retriever(small_index)
        assert bm25_retriever(loaded, num_results=5) != bm25_retriever(small_index)

    def test_fingerprint_depends_on_content_and_config(self):
        a = index_corpus([{"docno": "d", "text": "x y"}])
        b = index_corpus([{"docno": "d", "text": "x y"}])
        c = index_corpus([{"docno": "d", "text": "x z"}])
        d = index_corpus([{"docno": "d", "text": "x y"}], tokenizer=Tokenizer(["y"]))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != d.fingerprint()

    def test_load_rejects_non_index_dirs(self, tmp_path):
        with pytest.raises(ParseError):
            InvertedIndex.load(tmp_path)

    def test_load_rejects_unknown_format_version(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            f'"format_version": {FORMAT_VERSION}', '"format_version": 99'))
        with pytest.raises(ParseError):
            InvertedIndex.load(tmp_path / "idx")

    def test_load_refuses_format_1_with_a_pointer_to_reindex(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        manifest = tmp_path / "idx" / "manifest.json"
        manifest.write_text(json.dumps({"format_version": 1}))
        with pytest.raises(ParseError, match="format_version 1.*ragkit index"):
            InvertedIndex.load(tmp_path / "idx")

    def test_loaded_index_reads_its_fingerprint_from_the_manifest(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["fingerprint"] == small_index.fingerprint()
        assert InvertedIndex.load(tmp_path / "idx")._fingerprint == manifest["fingerprint"]

    def test_save_refuses_a_file(self, small_index, tmp_path):
        (tmp_path / "idx").write_text("mine")
        with pytest.raises(FileExistsError, match="not a directory"):
            small_index.save(tmp_path / "idx")
        assert (tmp_path / "idx").read_text() == "mine"

    @pytest.mark.parametrize("text", ["{not json", "[2]", ""])
    def test_load_refuses_an_unparseable_manifest(self, small_index, tmp_path, text):
        small_index.save(tmp_path / "idx")
        (tmp_path / "idx" / "manifest.json").write_text(text)
        with pytest.raises(ParseError, match="unreadable index manifest"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("key, value", [
        ("stopwords", "the"), ("stopwords", 5), ("stopwords", None), ("stopwords", ["a", 5]),
        ("stored_fields", "text"), ("stored_fields", {"text": 1}), ("stored_fields", [None]),
    ])
    def test_load_refuses_a_config_that_is_not_a_list_of_str(
            self, small_index, tmp_path, key, value):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(ParseError, match="corrupt index.*not a list of str"):
            InvertedIndex.load(tmp_path / "idx")

    def test_save_replaces_an_index_and_refuses_other_directories(self, small_index, tmp_path):
        other = index_corpus([{"docno": "x", "text": "other"}])
        other.save(tmp_path / "idx")
        small_index.save(tmp_path / "idx")
        assert InvertedIndex.load(tmp_path / "idx").fingerprint() == small_index.fingerprint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "keep.txt").write_text("mine")
        with pytest.raises(FileExistsError):
            small_index.save(tmp_path / "notes")
        assert (tmp_path / "notes" / "keep.txt").read_text() == "mine"

    @pytest.mark.parametrize("version", [1, 2, FORMAT_VERSION])
    def test_save_refuses_an_index_directory_holding_other_files(
            self, small_index, tmp_path, version):
        small_index.save(tmp_path / "data")
        if version != FORMAT_VERSION:
            old_file = "postings.json" if version == 1 else "stored.json"
            (tmp_path / "data" / old_file).write_text("[]")
            (tmp_path / "data" / "manifest.json").write_text(
                json.dumps({"format_version": version}))
        (tmp_path / "data" / "corpus.jsonl").write_text("mine")
        before = sorted(p.name for p in (tmp_path / "data").iterdir())
        with pytest.raises(FileExistsError, match="corpus.jsonl"):
            small_index.save(tmp_path / "data")
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == before
        assert (tmp_path / "data" / "corpus.jsonl").read_text() == "mine"

    def test_save_replaces_a_format_1_index_and_its_files(self, small_index, tmp_path):
        (tmp_path / "idx").mkdir()
        for name in ("postings.json", "doclens.json", "docnos.json", "stored.json"):
            (tmp_path / "idx" / name).write_text("[]")
        (tmp_path / "idx" / "manifest.json").write_text('{"format_version": 1}')
        small_index.save(tmp_path / "idx")
        assert InvertedIndex.load(tmp_path / "idx").fingerprint() == small_index.fingerprint()
        assert not (tmp_path / "idx" / "postings.json").exists()
        assert not (tmp_path / "idx" / "doclens.json").exists()

    def test_save_replaces_a_format_2_index_and_its_stored_json(self, small_index, tmp_path):
        (tmp_path / "idx").mkdir()
        for name in ("terms.json", "docnos.json", "stored.json"):
            (tmp_path / "idx" / name).write_text("[]")
        (tmp_path / "idx" / "manifest.json").write_text('{"format_version": 2}')
        with pytest.raises(ParseError, match="format_version 2.*re-run `ragkit index`"):
            InvertedIndex.load(tmp_path / "idx")
        small_index.save(tmp_path / "idx")
        assert InvertedIndex.load(tmp_path / "idx") == small_index
        assert not (tmp_path / "idx" / "stored.json").exists()

    def test_save_deletes_the_files_of_stored_fields_it_replaces(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        narrow = index_corpus([{"docno": "x", "text": "other"}])
        narrow.save(tmp_path / "idx")
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == \
            sorted([MANIFEST, *_file_names(1)])
        assert InvertedIndex.load(tmp_path / "idx") == narrow

    def test_stored_field_names_never_become_file_names(self, tmp_path):
        idx = index_corpus([{"docno": "d", "text": "x", "../up": "y", "a/b": "z"}],
                           fields_to_store=("text", "../up", "a/b"))
        idx.save(tmp_path / "idx")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]
        assert InvertedIndex.load(tmp_path / "idx").stored(0) == \
            {"text": "x", "../up": "y", "a/b": "z"}

    def test_save_moves_the_manifest_last(self, small_index, tmp_path, monkeypatch):
        other = index_corpus([{"docno": "x", "text": "other"}], fields_to_store=("text", "title"))
        other.save(tmp_path / "idx")
        real_replace, moved = os.replace, []

        def crash_at_the_manifest(src, dst):
            if Path(dst).name == MANIFEST:
                raise OSError("crashed before the manifest moved")
            moved.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_at_the_manifest)
        with pytest.raises(OSError, match="before the manifest"):
            small_index.save(tmp_path / "idx")
        # every other file moved first, so the new index is complete but for
        # its manifest, and the old manifest no longer names the new files
        assert sorted(moved) == sorted(_file_names(2))
        with pytest.raises(ParseError, match="no manifest.json"):
            InvertedIndex.load(tmp_path / "idx")

    def test_save_into_the_current_directory(self, small_index, tmp_path, monkeypatch):
        (tmp_path / "idx").mkdir()
        monkeypatch.chdir(tmp_path / "idx")
        other = index_corpus([{"docno": "x", "text": "other"}])
        other.save(".")
        small_index.save(".")
        assert InvertedIndex.load(".").fingerprint() == small_index.fingerprint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]

    def test_save_through_a_symlink_updates_its_destination(self, small_index, tmp_path):
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        other = index_corpus([{"docno": "x", "text": "other"}])
        other.save(tmp_path / "link")
        small_index.save(tmp_path / "link")
        assert (tmp_path / "link").is_symlink()
        assert InvertedIndex.load(tmp_path / "real").fingerprint() == small_index.fingerprint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    def test_interrupted_save_leaves_no_loadable_index(self, small_index, tmp_path, monkeypatch):
        real_save, calls = np.save, []

        def crash_on_second_array(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise KeyboardInterrupt("killed mid-save")
            real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", crash_on_second_array)
        with pytest.raises(KeyboardInterrupt):
            small_index.save(tmp_path / "idx")
        with pytest.raises(ParseError):
            InvertedIndex.load(tmp_path / "idx")
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_save_keeps_the_previous_index(self, small_index, tmp_path, monkeypatch):
        other = index_corpus([{"docno": "x", "text": "other"}])
        other.save(tmp_path / "idx")

        def crash(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", crash)
        with pytest.raises(OSError):
            small_index.save(tmp_path / "idx")
        assert InvertedIndex.load(tmp_path / "idx").fingerprint() == other.fingerprint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]

    def test_load_refuses_a_truncated_array_file(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "doc_ids.npy"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("old, new", [
        (b"'descr': '<i4'", b"'descr': '<q4'"),
        (b"'fortran_order': False", b"'fortran_order': 0    "),
        # a Python 2 long in the shape, which numpy's own reader would accept
        (b",), }", b"L,), }"),
        # one value more than the header's shape
        (b"", b"\x01\x00\x00\x00"),
    ])
    def test_load_refuses_an_array_file_np_save_would_not_write(
            self, small_index, tmp_path, old, new):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "doc_ids.npy"
        data = path.read_bytes()
        path.write_bytes(data.replace(old, new, 1) if old else data + new)
        with pytest.raises(ParseError, match="unreadable index file"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("name, damage", [
        ("doc_ids", lambda a: a[:-1]),
        ("tfs", lambda a: a[:-1]),
        ("indptr", lambda a: a[:-1]),
        ("doclens", lambda a: a[:-1]),
        ("doc_ids", lambda a: a + 4),
        ("doc_ids", lambda a: a.astype("<i8")),
        ("tfs", lambda a: a - a),
        ("tfs", lambda a: -a),
        # the first posting list is "the": doc ids 0, 1, 2, 3
        ("doc_ids", lambda a: np.concatenate([a[[0, 0]], a[2:]])),
        ("doc_ids", lambda a: np.concatenate([a[[1, 0]], a[2:]])),
    ])
    def test_load_refuses_inconsistent_arrays(self, small_index, tmp_path, name, damage):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / f"{name}.npy"
        np.save(path, damage(np.load(path)))
        with pytest.raises(ParseError, match="corrupt index"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("name, pos, delta", [
        # d2's length 6 becomes -3, which would score d2 below zero and
        # break the retriever's rule that nonzero entries are the matches
        ("doclens", 1, -9),
        # one more occurrence of "the" in d1 than d1's length allows
        ("tfs", 0, 1),
    ])
    def test_load_refuses_doclens_that_disagree_with_the_tfs(
            self, small_index, tmp_path, name, pos, delta):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / f"{name}.npy"
        damaged = np.load(path)
        damaged[pos] += delta
        np.save(path, damaged)
        with pytest.raises(ParseError, match="doclens disagree with the sum of each doc's tfs"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("name, damage", [
        ("terms", lambda a: a[:1] * 2 + a[2:]),
        ("terms", lambda a: [7] + a[1:]),
        ("docnos", lambda a: a[:1] * 2 + a[2:]),
        ("docnos", lambda a: [7] + a[1:]),
        ("docnos", lambda a: [None] + a[1:]),
    ])
    def test_load_refuses_inconsistent_json(self, small_index, tmp_path, name, damage):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / f"{name}.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        with pytest.raises(ParseError, match="corrupt index"):
            InvertedIndex.load(tmp_path / "idx")


    def test_resign_reproduces_the_fingerprint_of_undamaged_files(self, small_index, tmp_path):
        # the helper the structural tests below rely on
        small_index.save(tmp_path / "idx")
        resign(tmp_path / "idx")
        assert json.loads((tmp_path / "idx" / MANIFEST).read_text())["fingerprint"] == \
            small_index.fingerprint()
        assert InvertedIndex.load(tmp_path / "idx") == small_index

    @pytest.mark.parametrize("key", ["n_terms", "n_docs"])
    def test_load_refuses_one_disagreeing_manifest_count(self, small_index, tmp_path, key):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / MANIFEST
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, key: manifest[key] + 1}))
        resign(tmp_path / "idx")
        with pytest.raises(ParseError, match="manifest counts disagree"):
            InvertedIndex.load(tmp_path / "idx")

    def test_load_refuses_a_doc_id_repeated_within_a_posting_list(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        d = tmp_path / "idx"
        doc_ids, tfs, doclens = (np.load(d / f"{n}.npy") for n in ("doc_ids", "tfs", "doclens"))
        # the first posting list is "the": doc ids 0, 1, 2, 3; its second
        # posting moves to doc 0, and both docs' lengths follow, so every
        # other check still passes
        assert list(doc_ids[:4]) == [0, 1, 2, 3]
        doclens[0] += tfs[1]
        doclens[1] -= tfs[1]
        doc_ids[1] = 0
        np.save(d / "doc_ids.npy", doc_ids)
        np.save(d / "doclens.npy", doclens)
        resign(d)
        with pytest.raises(ParseError, match="not strictly ascending within a posting list"):
            InvertedIndex.load(d)

    @pytest.mark.parametrize("damage, what", [
        (lambda blob, o: (blob, o[1:]), "offsets do not span"),
        (lambda blob, o: (blob, o + 1), "offsets do not span"),
        (lambda blob, o: (blob, np.concatenate([[1], o[1:]])), "offsets do not span"),
        (lambda blob, o: (blob + b"x", o), "offsets do not span"),
        (lambda blob, o: (blob[:-1], o), "offsets do not span"),
        (lambda blob, o: (blob, np.concatenate([o[:1], o[2:3], o[1:2], o[3:]])),
         "offsets do not span"),
        (lambda blob, o: (blob, o.astype("<i4")), "wrong shape or dtype"),
        (lambda blob, o: (blob, o.reshape(1, -1)), "wrong shape or dtype"),
        (lambda blob, o: (b"\xff" + blob[1:], o), "not UTF-8"),
        # "é" is two bytes, and doc 0's value would end between them
        (lambda blob, o: (blob[:o[1] - 1] + "é".encode() + blob[o[1] + 1:], o), "not UTF-8"),
        (lambda blob, o: ("aé".encode() + blob[3:], np.concatenate([[0, 2], o[2:]])),
         "not UTF-8"),
    ])
    def test_load_refuses_inconsistent_stored_fields(self, small_index, tmp_path, damage, what):
        small_index.save(tmp_path / "idx")
        d = tmp_path / "idx"
        blob, offsets = damage((d / "stored_0.bin").read_bytes(), np.load(d / "stored_0.npy"))
        (d / "stored_0.bin").write_bytes(blob)
        np.save(d / "stored_0.npy", offsets)
        resign(d)
        with pytest.raises(ParseError, match=f"corrupt index.*{what}"):
            InvertedIndex.load(d)

    def test_load_refuses_swapped_tfs_of_one_doc(self, tmp_path):
        # the doc's tfs still sum to its length, so only the fingerprint
        # tells this index from the one saved
        idx = index_corpus(load_corpus(NQ_MINI))
        idx.save(tmp_path / "idx")
        path = tmp_path / "idx" / "tfs.npy"
        tfs = np.load(path)
        france = idx.postings("france")[0].tolist().index(0)
        capital = idx.postings("capital")[0].tolist().index(0)
        p, q = (int(idx._indptr[idx._term_ids[t]]) + i
                for t, i in (("france", france), ("capital", capital)))
        assert (tfs[p], tfs[q]) == (2, 1)
        tfs[[p, q]] = tfs[[q, p]]
        np.save(path, tfs)
        with pytest.raises(ParseError,
                           match="corrupt index.*do not hash to the manifest's fingerprint"):
            InvertedIndex.load(tmp_path / "idx")

    def test_load_refuses_an_edited_stored_value(self, small_index, tmp_path):
        small_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "stored_0.bin"
        path.write_bytes(path.read_bytes().replace(b"eiffel", b"EIFFEL"))
        with pytest.raises(ParseError,
                           match="corrupt index.*do not hash to the manifest's fingerprint"):
            InvertedIndex.load(tmp_path / "idx")


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    """A small index with two stored fields, non-ASCII text, an empty doc
    and a stopword, and the directory it is saved in."""
    idx = index_corpus([
        {"docno": "d1", "text": "the café is in paris", "title": "Café"},
        {"docno": "d2", "text": "", "title": "empty"},
        {"docno": "d3", "text": "paris is the capital of france paris", "title": ""},
    ], fields_to_store=("text", "title"), tokenizer=Tokenizer(["of"]))
    directory = tmp_path_factory.mktemp("saved") / "idx"
    idx.save(directory)
    return idx, directory


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([MANIFEST, *_file_names(2)]),
       how=st.sampled_from(["flip", "truncate", "extend"]),
       at=st.floats(0, 1), data=st.binary(min_size=1, max_size=9))
def test_damaged_file_is_refused_or_changes_nothing(saved_index, name, how, at, data):
    """One file flipped, truncated or extended at a drawn offset: load
    raises ParseError or returns an index equal in every part."""
    idx, saved = saved_index
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "idx"
        shutil.copytree(saved, d)
        raw = (d / name).read_bytes()
        i = min(int(at * len(raw)), len(raw) - (how == "flip"))
        if how == "flip":
            raw = raw[:i] + bytes([raw[i] ^ (data[0] or 0x80)]) + raw[i + 1:]
        elif how == "truncate":
            raw = raw[:i]
        else:
            raw = raw[:i] + data + raw[i:]
        (d / name).write_bytes(raw)
        try:
            loaded = InvertedIndex.load(d)
        except ParseError:
            return
    assert loaded.fingerprint() == idx.fingerprint()
    assert loaded._config() == idx._config()
    assert {k: bytes(memoryview(v)) for k, v in loaded._parts().items()} == \
        {k: bytes(memoryview(v)) for k, v in idx._parts().items()}
    assert [loaded.stored(i) for i in range(3)] == [idx.stored(i) for i in range(3)]


class TestAttachAndIndexer:
    def test_attach_text(self, small_index):
        att = attach_text(small_index, fields=("text", "title"))
        frame = Frame(SemType.R, [
            {"qid": "q", "docno": "d2", "score": 1.0, "rank": 0}])
        out = run(att, frame)
        assert out.rows[0]["title"] == "Berlin"
        assert out.rows[0]["score"] == 1.0

    def test_attach_unknown_docno(self, small_index):
        att = attach_text(small_index, fields=("text",))
        frame = Frame(SemType.R, [
            {"qid": "q", "docno": "nope", "score": 1.0, "rank": 0}])
        with pytest.raises(Exception) as err:
            run(att, frame)
        assert isinstance(err.value.cause, UnknownDocno)

    def test_indexer_and_index_keep_the_tokenizer_they_are_given(self):
        tokenizer = Tokenizer(["the"])
        assert InvertedIndex(tokenizer=tokenizer).tokenizer is tokenizer
        ix = Indexer(tokenizer=tokenizer)
        assert ix.tokenizer is tokenizer
        run(ix, Frame(SemType.D, [{"docno": "d", "text": "the tower"}]))
        assert ix.index.tokenizer is tokenizer and ix.index.df("the") == 0

    def test_indexer_is_terminal_and_builds_equal_index(self, small_index):
        docs = Frame(SemType.D, [
            {"docno": "d1", "text": "the eiffel tower is in paris", "title": "Eiffel"},
            {"docno": "d2", "text": "berlin is the capital of germany", "title": "Berlin"},
            {"docno": "d3", "text": "paris is the capital of france", "title": "Paris"},
            {"docno": "d4", "text": "the colosseum is in rome italy", "title": "Rome"},
        ])
        ix = indexer(fields_to_store=("text", "title"))
        out = run(ix, docs)
        assert len(out) == 0
        assert ix.index.fingerprint() == small_index.fingerprint()
