"""One-catch error hierarchy and message content."""

import pytest

import ragkit
from ragkit import errors
from ragkit.index import (BM25Retriever, Indexer, InvertedIndex, TextAttacher, Tokenizer,
                          index_corpus)
from ragkit.rag import Concatenator, StubBackend, ircot


def test_every_error_derives_from_the_base():
    names = [n for n in dir(errors) if isinstance(getattr(errors, n), type)
             and issubclass(getattr(errors, n), Exception)]
    for name in names:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.RagkitError), name


def test_validation_family():
    for cls in (errors.MissingColumn, errors.DuplicateKey, errors.RankViolation,
                errors.KindMismatch, errors.EmptyGold):
        assert issubclass(cls, errors.ValidationError)


def test_messages_name_the_offender():
    assert "'query'" in str(errors.MissingColumn("query", "in Q row"))
    assert "q7" in str(errors.RankViolation("q7", "gap"))
    assert "offset 3" in str(errors.ExprError("bad", 3))
    assert "file.jsonl:9" in str(errors.ParseError("oops", "file.jsonl", 9))
    assert str(errors.ParseError("bare message")) == "bare message"
    assert "qid=q1" in str(errors.BackendError("down", qid="q1"))
    assert "none" in str(errors.UnknownDataset("x", {}))
    assert "'dev'" in str(errors.MissingSplit("ds", "topics", "test", {"dev": 1}))


def test_errors_are_reexported_at_package_level():
    assert ragkit.RagkitError is errors.RagkitError
    assert ragkit.TypeMismatch is errors.TypeMismatch


def _stages():
    idx = index_corpus([{"docno": "d1", "text": "paris"}])
    return {
        "stopwords": lambda v: Tokenizer(v),
        "stored_fields": lambda v: InvertedIndex(stored_fields=v),
        "fields_to_store": lambda v: index_corpus([], v),
        "include_fields": lambda v: BM25Retriever(idx, include_fields=v),
        "fields": lambda v: TextAttacher(idx, v),
        "Indexer.fields_to_store": lambda v: Indexer(v),
        "Concatenator.fields": lambda v: Concatenator(fields=v),
        "ircot.fields": lambda v: ircot(BM25Retriever(idx), StubBackend(), fields=v),
    }


@pytest.mark.parametrize("where", list(_stages()))
@pytest.mark.parametrize("bad", ["text", ["text", 5], [None], 5],
                         ids=["str", "int-member", "None-member", "int"])
def test_a_field_list_must_be_strs_and_not_a_str(where, bad):
    # a bare str would be split into its characters
    build = _stages()[where]
    with pytest.raises(TypeError) as err:
        build(bad)
    assert str(err.value) == f"{where.split('.')[-1]} must be a sequence of str, got {bad!r}"
    build(["text"])  # a list of str is taken
