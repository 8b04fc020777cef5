import pytest

from hypothesis import given, settings, strategies as st

from ragkit.errors import ExprError, TypeMismatch
from ragkit.exprs import Env, default_backend, parse, print_expr
from ragkit.frame import Frame, SemType
from ragkit.index import BM25Params, BM25Retriever, TextAttacher, index_corpus
from ragkit.rag import (
    DEFAULT_RAG_TEMPLATE,
    Concatenator,
    HttpBackend,
    IterativeRetriever,
    PromptRenderer,
    PromptTemplate,
    Reader,
    StubBackend,
    ZeroShot,
)
from ragkit.transformer import (
    CombineSum,
    FnTransformer,
    RankCutoff,
    SetUnion,
    Signature,
    Then,
    chain,
    combine_sum,
    components,
    identity,
    run,
    type_check,
)


@pytest.fixture
def env(small_index):
    return Env(index_provider=lambda: small_index)


class TestStageParsing:
    def test_bare_stage_names(self, env):
        assert isinstance(parse("bm25", env), BM25Retriever)
        assert isinstance(parse("concat"), Concatenator)
        assert isinstance(parse("prompt"), PromptRenderer)
        assert isinstance(parse("reader"), Reader)
        assert isinstance(parse("zeroshot"), ZeroShot)
        assert isinstance(parse("ircot", env), IterativeRetriever)

    def test_bm25_arguments(self, env):
        node = parse("bm25(k1=0.9, b=0.4, k=7, fields=text+title)", env)
        assert node.bm25.k1 == 0.9 and node.bm25.b == 0.4
        assert node.num_results == 7
        assert node.include_fields == ("text", "title")

    def test_parsing_and_printing_build_no_array(self, small_index):
        def fresh():
            return Env(index_provider=lambda: small_index)

        parsed = [parse(text, fresh()) for text in (
            "bm25", "bm25(k=3, k1=0.9) % 2 >> concat >> reader(backend=stub:extract)",
            "ircot(backend=stub:extract, iters=2)")]
        for p in parsed:
            assert parse(print_expr(p), fresh()) == p
        assert small_index._impact_memo == {}

    def test_equal_retrievers_share_one_array_however_they_were_parsed(
            self, env, small_index):
        first, *leaves = [parse("bm25(k=3) % 2", env).child,
                          parse("bm25(k=3) % 1", Env(index_provider=env.index_provider)).child,
                          components(parse("bm25(k=3) >> concat", env))[0],
                          parse("ircot(k=3)", env).retriever, BM25Retriever(small_index)]
        tuned = parse("bm25(k=3, k1=0.9)", env)
        q = Frame(SemType.Q, [{"qid": "q", "query": "paris capital"}])
        for r in [first, *leaves, tuned]:
            run(r, q)
        assert all(r.bm25 == first.bm25 for r in leaves) and tuned.bm25 != first.bm25
        assert list(small_index._impact_memo) == [first.bm25, tuned.bm25]
        run(parse("ircot(k=3, backend=stub:extract)", env), q)
        assert len(small_index._impact_memo) == 2

    def test_bm25_defaults_attach_text(self, env):
        assert parse("bm25", env).include_fields == ("text",)
        assert parse('bm25(fields="")', env).include_fields == ()

    def test_concat_arguments(self):
        node = parse('concat(docs=3, per_doc=100, total=400, sep=";")')
        assert node.k_docs == 3
        assert node.per_doc_char_budget == 100
        assert node.total_char_budget == 400
        assert node.item_separator == ";"

    def test_reader_backend_specs(self):
        assert parse("reader(backend=stub:echo)").backend.mode == "echo_query"
        assert parse("reader(backend=stub:extract)").backend.mode == \
            "extractive_first_sentence"
        node = parse("reader(backend=http:gpt-4o)")
        assert isinstance(node.backend, HttpBackend)
        assert node.backend.model == "gpt-4o"

    def test_reader_template_overrides(self):
        node = parse('reader(system="be terse", user="Q {query} C {context}")')
        assert node.template.system == "be terse"
        assert node.template.user_template == "Q {query} C {context}"

    def test_ircot_arguments(self, env):
        node = parse('ircot(iters=2, docs=3, exit="final answer", k=9)', env)
        assert node.max_iterations == 2
        assert node.docs_per_iteration == 3
        assert node.exit_phrase == "final answer"
        assert node.retriever.num_results == 9

    def test_value_literals(self):
        node = parse('concat(docs=none, per_doc=250)')
        assert node.k_docs is None
        assert node.per_doc_char_budget == 250
        node = parse('concat(sep="a\\nb")')
        assert node.item_separator == "a\nb"


class TestOperatorPrecedence:
    def test_then_binds_loosest(self, env):
        node = parse("bm25 >> concat >> reader", env)
        assert isinstance(node, Then)
        assert [type(c).__name__ for c in components(node)] == \
            ["BM25Retriever", "Concatenator", "Reader"]

    def test_cutoff_binds_tightest(self, env):
        node = parse("bm25 + bm25(k1=2.0) % 5", env)
        assert isinstance(node, CombineSum)
        assert isinstance(node.right, RankCutoff)

    def test_sum_binds_tighter_than_union(self, env):
        node = parse("bm25 | bm25(k1=2.0) + bm25(k1=3.0)", env)
        assert isinstance(node, SetUnion)
        assert isinstance(node.right, CombineSum)

    def test_union_binds_tighter_than_then(self, env):
        node = parse("bm25 | bm25(k1=2.0) >> concat >> reader", env)
        assert isinstance(node, Then)
        assert isinstance(components(node)[0], SetUnion)

    def test_parens_override(self, env):
        node = parse("(bm25 | bm25(k1=2.0)) % 4", env)
        assert isinstance(node, RankCutoff)
        assert isinstance(node.child, SetUnion)

    def test_left_associativity(self, env):
        node = parse("bm25 + bm25(k1=2.0) + bm25(k1=3.0)", env)
        assert isinstance(node, CombineSum)
        assert isinstance(node.left, CombineSum)

    def test_repeated_cutoff(self, env):
        node = parse("bm25 % 10 % 3", env)
        assert isinstance(node, RankCutoff) and node.k == 3
        assert isinstance(node.child, RankCutoff) and node.child.k == 10


class TestParseErrors:
    def test_syntax_errors_carry_offsets(self, env):
        for text, fragment in [
            ("", "stage name"),
            ("bm25 >>", "stage name"),
            ("(bm25", "expected ')'"),
            ("bm25 %", "integer"),
            ("bm25 % 0", "positive"),
            ("bm25(k=-2)", "num_results > 0"),
            ("ircot(k=0)", "num_results > 0"),
            ("concat(docs=-1)", "k_docs > 0"),
            ("ircot(docs=-1)", "docs_per_iteration > 0"),
            ("ircot(iters=0)", "max_iterations > 0"),
            ("bm25(k=2.5)", "num_results > 0"),
            ("ircot(iters=1.5)", "max_iterations > 0"),
            ("ircot(docs=true)", "docs_per_iteration > 0"),
            ("concat(docs=2.5)", "k_docs > 0"),
            ("concat(sep=5)", "item_separator"),
            ("concat(docs)", "expected '='"),
            ('concat(sep="oops)', "unterminated"),
            ("bm25 bm25", "trailing"),
            ("concat() junk", "trailing"),
        ]:
            with pytest.raises(ExprError) as err:
                parse(text, env)
            assert fragment in str(err.value)
            assert err.value.offset >= 0
        # a rejection is reported at the first argument refused on its own;
        # offsets are str indices, not byte offsets
        for text, offset in [("reader >> concat(docs=2.5)", 22), ("bm25(k=0)", 7),
                             ("ircot(iters=0)", 12), ("concat(sep=5)", 11),
                             ("bm25(k1=-1)", 8), ("bm25(b=2)", 7), ("concat(fields=5)", 14),
                             ('concat(sep="é", docs=0)', 21)]:
            with pytest.raises(ExprError) as err:
                parse(text, env)
            assert err.value.offset == offset

    @pytest.mark.parametrize("text, offset, fragment", [
        ('reader(user="{foo}")', 12, "unknown placeholder {foo}"),
        ('prompt(user="{x}")', 12, "unknown placeholder {x}"),
        ('zeroshot(user="{context}")', 14, "must not use {context}"),
        ("reader(system=5)", 14, "system must be a str, got 5"),
        ("ircot(exit=5)", 11, "exit_phrase must be a str, got 5"),
        ('ircot(exit="")', 11, "exit_phrase must not be blank"),
    ])
    def test_template_errors_are_expression_errors(self, env, text, offset, fragment):
        with pytest.raises(ExprError) as err:
            parse(text, env)
        assert err.value.offset == offset
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text, offset, fragment", [
        ("bm25(=1)", 5, "expected an argument name"),
        ("concat(docs=1, =2)", 15, "expected an argument name"),
        ('concat(sep="\\q")', 11, "bad string literal"),
        # a bare false is the bool False, which no count accepts
        ("ircot(docs=false)", 11, "docs_per_iteration > 0), got False"),
    ])
    def test_argument_syntax_errors(self, env, text, offset, fragment):
        with pytest.raises(ExprError) as err:
            parse(text, env)
        assert err.value.offset == offset
        assert fragment in str(err.value)

    def test_repeated_argument_is_refused(self, env):
        with pytest.raises(ExprError, match="argument 'k' given twice") as err:
            parse("bm25(k=1, k=2)", env)
        assert err.value.offset == 10

    def test_a_rejection_no_argument_causes_is_placed_at_the_stage(self, small_index):
        # the factory's backend has no max_input_chars, which ircot reads
        env = Env(index_provider=lambda: small_index,
                  backend_factory=lambda spec, offset: object())
        for text in ("  ircot", "  ircot(k=5)"):
            with pytest.raises(ExprError, match="bad arguments for ircot") as err:
                parse(text, env)
            assert err.value.offset == 2

    def test_a_key_error_while_building_is_not_an_unknown_stage(self):
        env = Env(backend_factory=lambda spec, off: {"stub:echo": StubBackend()}[spec])
        assert isinstance(parse("reader(backend=stub:echo)", env), Reader)
        with pytest.raises(KeyError):
            parse("reader(backend=http:x)", env)
        with pytest.raises(ExprError, match="unknown stage 'rerank'"):
            parse("rerank", env)

    def test_unknown_stage_lists_known_ones(self):
        with pytest.raises(ExprError) as err:
            parse("rerank")
        assert "bm25" in str(err.value)

    def test_unknown_argument(self):
        with pytest.raises(ExprError) as err:
            parse("concat(shards=8)")
        assert "shards" in str(err.value)
        # named like another stage's argument, and a value that one refuses
        for text in ("reader(fields=5)", "concat(backend=carrier_pigeon)"):
            with pytest.raises(ExprError, match="unknown argument"):
                parse(text)

    def test_index_required(self):
        with pytest.raises(ExprError) as err:
            parse("bm25")  # no env with an index
        assert "--index" in str(err.value)

    def test_type_errors_surface_from_combinators(self, env):
        with pytest.raises(TypeMismatch):
            parse("bm25 >> reader", env)
        with pytest.raises(TypeMismatch):
            parse("concat + concat")

    def test_bad_backend_specs(self):
        with pytest.raises(ExprError):
            parse("reader(backend=stub:telepathy)")
        with pytest.raises(ExprError):
            parse("reader(backend=http:)")
        with pytest.raises(ExprError):
            parse("reader(backend=carrier_pigeon)")
        assert isinstance(default_backend("stub:echo", 0), StubBackend)

    def test_custom_backend_factory(self):
        made = []

        def factory(spec, offset):
            made.append(spec)
            return StubBackend("echo_query")

        parse("reader(backend=anything:goes)", Env(backend_factory=factory))
        assert made == ["anything:goes"]


class TestPrintExpr:
    CASES = [
        "bm25",
        "bm25(k=5)",
        "bm25 >> concat >> reader",
        "bm25 % 10",
        "bm25 % 10 % 3",
        "bm25 + bm25(k1=2.0)",
        "bm25 | bm25(k1=2.0) + bm25(k1=3.0)",
        "(bm25 | bm25(k1=2.0)) % 4",
        "(bm25 % 8 + bm25(k1=2.0)) >> concat(docs=2) >> reader(backend=stub:extract)",
        "bm25 >> (concat >> reader)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_is_structurally_equal(self, text, env):
        node = parse(text, env)
        rendered = print_expr(node)
        assert parse(rendered, env) == node

    def test_rendering_uses_source_form(self, env):
        node = parse("bm25(k=5)  >>  concat", env)
        assert print_expr(node) == "bm25(k=5) >> concat"

    def test_parens_only_where_needed(self, env):
        assert print_expr(parse("(bm25 | bm25(k1=2.0)) % 4", env)) == \
            "(bm25 | bm25(k1=2.0)) % 4"
        assert print_expr(parse("bm25 | (bm25(k1=2.0) + bm25(k1=3.0))", env)) == \
            "bm25 | bm25(k1=2.0) + bm25(k1=3.0)"

    def test_code_built_leaves_render_by_name(self, small_index):
        from ragkit.index import bm25_retriever

        # a code-built retriever attaches no fields; the stage's default does
        node = bm25_retriever(small_index) % 3
        assert print_expr(node) == 'bm25(fields="") % 3'
        assert parse(print_expr(node), Env(index_provider=lambda: small_index)) == node

    def test_unweighted_sums_print_as_plus(self, env):
        a, b = parse("bm25", env), parse("bm25(k1=2.0)", env)
        for node in (a + b, combine_sum(a, b, 1, 1.0)):
            assert print_expr(node) == "bm25 + bm25(k1=2.0)"
            assert parse(print_expr(node), env) == node

    def test_weighted_sums_are_refused(self, env):
        # the syntax has no weights, so printing one would parse back unequal
        a, b = parse("bm25", env), parse("bm25(k1=2.0)", env)
        with pytest.raises(ValueError, match="weights 0.5 and 1.0"):
            print_expr(combine_sum(a, b, 0.5, 1.0))
        with pytest.raises(ValueError, match="weights 1.0 and 2.0"):
            print_expr(combine_sum(a, b, 1.0, 2.0) % 3 >> parse("attach", env))


_TREE_ENV = Env(index_provider=lambda: index_corpus(
    [{"docno": "d1", "text": "the eiffel tower is in paris"}]))


def _trees(leaves):
    """Trees over `leaves` built with %, + and | (any depth). Each leaf
    strategy yields one input type, so these trees keep it."""
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(sub, st.integers(1, 20)).map(lambda t: t[0] % t[1]),
        st.tuples(sub, sub).map(lambda t: t[0] + t[1]),
        st.tuples(sub, sub).map(lambda t: t[0] | t[1]),
    ), max_leaves=6)


def _parsed(texts):
    return st.sampled_from(texts).map(lambda text: parse(text, _TREE_ENV))


# R -> R pipelines are trees chained with >>; a Q -> R tree may feed one
_RR = st.lists(_trees(_parsed(["attach", "attach(fields=title)"])), min_size=1,
               max_size=3).map(chain)
_QR = st.recursive(
    _trees(_parsed(["bm25", "bm25(k=5)", "bm25(k=20)", "bm25(k1=0.9)", "bm25(k1=2.0)"])),
    lambda sub: st.one_of(
        st.tuples(sub, _RR).map(lambda t: t[0] >> t[1]),
        _trees(sub),
    ), max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(tree=_QR)
def test_print_then_parse_gives_the_tree_back(tree):
    text = print_expr(tree)
    again = parse(text, _TREE_ENV)
    assert again == tree
    assert print_expr(again) == text


# Code-built trees: every stage from its constructor, with random valid
# field values (defaults among them), under all four operators.
_IDX = _TREE_ENV.index(0)
_FIELDS = st.lists(st.sampled_from(["text", "title", "url"]), max_size=3, unique=True).map(tuple)
_TEXT = st.text(max_size=10)
_BACKENDS = st.one_of(
    st.builds(StubBackend, st.sampled_from(["echo_query", "extractive_first_sentence"])),
    st.builds(HttpBackend, st.text(min_size=1, max_size=10)),
)


def _templates(*placeholders):
    part = st.one_of(_TEXT.filter(lambda t: "{" not in t),
                     st.sampled_from([f"{{{p}}}" for p in placeholders]))
    return st.builds(PromptTemplate, st.lists(part, max_size=4).map("".join), _TEXT)


def _maybe(default, values):
    return st.one_of(st.just(default), values)


_BM25 = st.builds(
    BM25Retriever, st.just(_IDX),
    st.one_of(st.none(), st.builds(BM25Params, st.floats(0, 3), st.floats(0, 1))),
    _maybe(1000, st.integers(1, 50)), _FIELDS)
_ATTACH = st.builds(TextAttacher, st.just(_IDX), _FIELDS)
_CONCAT = st.builds(
    Concatenator, k_docs=st.one_of(st.none(), st.integers(1, 20)), fields=_FIELDS,
    per_doc_char_budget=_maybe(1500, st.integers(1, 3000)),
    total_char_budget=_maybe(6000, st.integers(1, 9000)),
    item_separator=_maybe("\n\n", _TEXT))
_PROMPT = st.builds(PromptRenderer, _maybe(DEFAULT_RAG_TEMPLATE, _templates("query", "context")))
_READER = st.builds(Reader, _BACKENDS, st.one_of(st.none(), _templates("query", "context")))
_ZEROSHOT = st.builds(ZeroShot, _BACKENDS, st.one_of(st.none(), _templates("query")))


@st.composite
def _ircot(draw):
    fields = draw(_FIELDS)
    k = draw(_maybe(100, st.integers(1, 50)))
    return IterativeRetriever(
        BM25Retriever(_IDX, num_results=k, include_fields=fields), draw(_BACKENDS),
        draw(st.one_of(st.none(), _templates("query", "context"))),
        exit_phrase=draw(_maybe("so the answer is", _TEXT.filter(str.strip))),
        max_iterations=draw(_maybe(4, st.integers(1, 9))),
        docs_per_iteration=draw(_maybe(4, st.integers(1, 9))), fields=fields)


_CODE_BUILT = st.one_of(
    st.tuples(_trees(_BM25), st.lists(_trees(_ATTACH), max_size=2), _CONCAT,
              st.lists(_PROMPT, max_size=2), _READER)
    .map(lambda t: chain([t[0], *t[1], t[2], *t[3], t[4]])),
    _ZEROSHOT,
    _ircot(),
)


@settings(max_examples=200, deadline=None)
@given(tree=_CODE_BUILT)
def test_code_built_trees_print_and_parse_back(tree):
    text = print_expr(tree)
    again = parse(text, _TREE_ENV)
    assert again == tree
    assert print_expr(again) == text


@settings(max_examples=200, deadline=None)
@given(tree=_CODE_BUILT, data=st.data())
def test_equal_trees_hash_alike(tree, data):
    sig = type_check(tree)
    parts = components(tree)
    cut = data.draw(st.integers(1, len(parts)))
    twins = [
        parse(print_expr(tree), _TREE_ENV),
        tree >> identity(sig.output),
        identity(sig.input) >> tree,
        chain([*parts[:cut], identity(parts[cut - 1].signature.output), *parts[cut:]]),
        Then(chain(parts[:cut]), chain(parts[cut:])) if cut < len(parts) else tree,
    ]
    for twin in twins:
        assert twin == tree and tree == twin
        assert hash(twin) == hash(tree)


def _retriever(**kwargs):
    return BM25Retriever(_IDX, **{"num_results": 100, "include_fields": ("text",)} | kwargs)


@pytest.mark.parametrize("leaf", [
    Reader(StubBackend("scripted", script=[("eiffel", "paris")])),
    Reader(HttpBackend("m", base_url="http://localhost:1")),
    Reader(HttpBackend("m", max_input_chars=10)),
    Concatenator(item_template="{text}!"),
    IterativeRetriever(_retriever(bm25=BM25Params(k1=2.0)), StubBackend()),
    IterativeRetriever(_retriever() % 5, StubBackend()),
    FnTransformer(Signature(SemType.QC, SemType.A), "mine", lambda f: f),
    identity(SemType.QC),
], ids=lambda leaf: type(leaf).__name__)
def test_fields_the_syntax_cannot_state_are_refused(leaf):
    upstream = {SemType.R: "bm25", SemType.QC: "bm25 >> concat"}.get(leaf.signature.input)
    trees = [leaf] + ([parse(upstream, _TREE_ENV) >> leaf] if upstream else [])
    for tree in trees:
        with pytest.raises(ValueError, match="cannot print"):
            print_expr(tree)


def test_parsed_pipeline_runs_end_to_end(env, small_index):
    p = parse("bm25(k=2) >> concat >> reader(backend=stub:extract)", env)
    assert type_check(p).input is SemType.Q
    out = run(p, Frame(SemType.Q, [{"qid": "q1", "query": "eiffel tower"}]))
    assert out.rows[0]["qanswer"] == "the eiffel tower is in paris"
