"""Structural identity of the built-in nodes: every constructor argument is
part of a node's identity, and equal arguments give equal nodes."""

import inspect
from dataclasses import dataclass, fields

import pytest

from ragkit.index import (
    BM25Params,
    BM25Retriever,
    Indexer,
    InvertedIndex,
    TextAttacher,
    Tokenizer,
    index_corpus,
)
from ragkit.rag import (
    Backend,
    Concatenator,
    HttpBackend,
    IterativeRetriever,
    PromptRenderer,
    PromptTemplate,
    Reader,
    StubBackend,
    ZeroShot,
)
from ragkit.frame import SemType
from ragkit.transformer import (
    CombineSum,
    FnTransformer,
    RankCutoff,
    SetUnion,
    Signature,
    Then,
)

LEAVES = [BM25Retriever, TextAttacher, Indexer, Concatenator, PromptRenderer,
          Reader, ZeroShot, IterativeRetriever]
COMPOSITES = [Then, CombineSum, SetUnion, RankCutoff]


def http(model="m", **settings):
    # the session is only used by generate, which these tests never call
    return HttpBackend(model, session=object(), **{"base_url": "http://a", **settings})


def cases(index):
    """Per leaf: base constructor arguments, and for every constructor
    parameter the values that must each make a stage unequal to the base."""
    other_index = index_corpus([{"docno": "d1", "text": "another corpus"}])
    backends = [http("other"), http(base_url="http://b"), http(temperature=0.7),
                http(max_input_chars=100), StubBackend()]
    retriever = BM25Retriever(index, num_results=100, include_fields=("text",))
    other = BM25Retriever(index, num_results=10)
    attacher = TextAttacher(index, ("text",))
    return {
        BM25Retriever: ({"index": index}, {
            "index": [other_index],
            "bm25": [BM25Params(k1=0.9), BM25Params(b=0.3)],
            "num_results": [10],
            "include_fields": [("text",)],
        }),
        TextAttacher: ({"index": index, "fields": ("text",)}, {
            "index": [other_index],
            "fields": [("title",), ("text", "title")],
        }),
        Indexer: ({}, {
            "fields_to_store": [("text", "title")],
            "tokenizer": [Tokenizer(["the"])],
        }),
        Concatenator: ({}, {
            "k_docs": [3],
            "fields": [("title",)],
            "per_doc_char_budget": [100],
            "total_char_budget": [100],
            "item_template": ["{ordinal}. {text}"],
            "item_separator": ["\n"],
        }),
        PromptRenderer: ({"template": PromptTemplate("C: {context} Q: {query}")}, {
            "template": [PromptTemplate("C: {context} Q: {query}", system="terse"),
                         PromptTemplate("Q: {query}")],
        }),
        Reader: ({"backend": http()}, {
            "backend": backends,
            "template": [PromptTemplate("{context} {query}")],
        }),
        ZeroShot: ({"backend": http()}, {
            "backend": backends,
            "template": [PromptTemplate("Q: {query}")],
        }),
        IterativeRetriever: ({"retriever": retriever, "backend": http()}, {
            "retriever": [BM25Retriever(index, num_results=10, include_fields=("text",))],
            "backend": backends,
            "template": [PromptTemplate("{context}\n{query}")],
            "exit_phrase": ["done"],
            "max_iterations": [2],
            "docs_per_iteration": [2],
            "fields": [("title",)],
        }),
        Then: ({"left": retriever, "right": attacher}, {
            "left": [other],
            "right": [TextAttacher(index, ("title",))],
        }),
        CombineSum: ({"left": retriever, "right": other}, {
            "left": [other],
            "right": [retriever],
            "weight_left": [0.5],
            "weight_right": [2.0],
        }),
        SetUnion: ({"left": retriever, "right": other}, {
            "left": [other],
            "right": [retriever],
        }),
        RankCutoff: ({"child": retriever, "k": 5}, {
            "child": [other],
            "k": [3],
        }),
    }


@pytest.mark.parametrize("cls", LEAVES + COMPOSITES, ids=lambda cls: cls.__name__)
def test_each_constructor_argument_is_part_of_the_identity(cls, small_index, tmp_path):
    base, alternatives = cases(small_index)[cls]
    assert set(alternatives) == set(inspect.signature(cls).parameters)
    stage = cls(**base)
    for param, values in alternatives.items():
        for value in values:
            assert cls(**{**base, param: value}) != stage, (param, value)
        # a default spelled out is the default left out
        filled = cls(**{**base, param: getattr(stage, param)})
        assert filled == stage and hash(filled) == hash(stage), param

    # equal arguments, built separately and over the same index after a
    # save and a load, give equal stages with equal hashes
    small_index.save(tmp_path / "idx")
    twin = cls(**cases(InvertedIndex.load(tmp_path / "idx"))[cls][0])
    assert twin == stage and hash(twin) == hash(stage)


def test_stub_scripts_are_part_of_the_identity():
    def stage(script, default=""):
        return ZeroShot(StubBackend("scripted", script, default))

    assert stage([("a", "b")]) == stage((("a", "b"),))
    assert stage([("a", "b")]) != stage([("a", "c")])
    assert stage([("a", "b")]) != stage([("a", "b")], default="x")


def test_composite_keys_never_equal_leaf_keys(small_index):
    # a leaf with a composite's name and fields as its params is still a leaf
    retriever = BM25Retriever(small_index)
    for node in (Then(retriever, TextAttacher(small_index, ("text",))),
                 retriever + retriever, retriever | retriever, retriever % 3):
        params = [(f.name, getattr(node, f.name)) for f in fields(node)]
        leaf = FnTransformer(Signature(SemType.Q, SemType.R), node.name,
                             lambda f: f, params=params)
        assert leaf != node


def test_nodes_of_different_classes_are_unequal(small_index):
    class Sub(BM25Retriever):
        """Same name and fields as its base, but another class."""

    @dataclass(unsafe_hash=True, repr=False)
    class DataSub(BM25Retriever):
        pass

    base = BM25Retriever(small_index)
    for cls in (Sub, DataSub):
        assert cls(small_index) != base and base != cls(small_index)
        assert cls(small_index) == cls(small_index)
        assert hash(cls(small_index)) == hash(cls(small_index))

    # a function stage's signature is part of its identity
    def fn(sig):
        return FnTransformer(sig, "same", lambda f: f, params=(("k", 1),))

    assert fn(Signature(SemType.R, SemType.R)) != fn(Signature(SemType.QC, SemType.QC))
    assert fn(Signature(SemType.R, SemType.R)) == fn(Signature(SemType.R, SemType.R))


def test_a_backend_that_is_not_a_dataclass_equals_only_itself():
    class Plain(Backend):
        def generate(self, prompts, system=""):
            return list(prompts)

    backend = Plain()
    assert Reader(backend) == Reader(backend)
    assert hash(Reader(backend)) == hash(Reader(backend))
    assert Reader(backend) != Reader(Plain())


# Per dataclass backend: base arguments, then every field with a value that
# differs from the base, as compared (it may change an answer) or not.
BACKEND_FIELDS = {
    StubBackend: ({"mode": "scripted"}, {
        "mode": "echo_query",
        "script": [("a", "b")],
        "default_answer": "x",
        "max_input_chars": 10,
    }, {}),
    HttpBackend: ({"model": "m", "base_url": "http://a", "session": object()}, {
        "model": "other",
        "base_url": "http://b",
        "temperature": 0.7,
        "max_input_chars": 100,
    }, {
        "timeout": 5.0,
        "max_retries": 0,
        "retry_base_delay": 0.1,
        "session": object(),
        "sleeper": lambda delay: None,
        "concurrency": 1,
    }),
}


@pytest.mark.parametrize("cls", list(BACKEND_FIELDS), ids=lambda cls: cls.__name__)
def test_backend_identity_is_its_compared_fields(cls):
    base, compared, not_compared = BACKEND_FIELDS[cls]
    # each field is classified exactly once, as its declaration says
    assert sorted(f.name for f in fields(cls)) == sorted([*compared, *not_compared])
    assert {f.name for f in fields(cls) if f.compare} == set(compared)
    stage = Reader(cls(**base))
    for name, value in compared.items():
        assert Reader(cls(**{**base, name: value})) != stage, name
    for name, value in not_compared.items():
        other = Reader(cls(**{**base, name: value}))
        assert other == stage and hash(other) == hash(stage), name
