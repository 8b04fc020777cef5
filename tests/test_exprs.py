import pytest

from ragkit.errors import ExprError, TypeMismatch
from ragkit.exprs import Env, default_backend, parse, print_expr
from ragkit.frame import Frame, SemType
from ragkit.index import BM25Retriever
from ragkit.rag import (
    Concatenator,
    HttpBackend,
    IterativeRetriever,
    PromptRenderer,
    Reader,
    StubBackend,
    ZeroShot,
)
from ragkit.transformer import (
    CombineSum,
    RankCutoff,
    SetUnion,
    Then,
    components,
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
            ("bm25(k=-2)", "k > 0"),
            ("ircot(k=0)", "k > 0"),
            ("concat(docs=-1)", "k_docs > 0"),
            ("ircot(docs=-1)", "docs_per_iteration > 0"),
            ("ircot(iters=0)", "max_iterations > 0"),
            ("bm25(k=2.5)", "k > 0"),
            ("ircot(iters=1.5)", "max_iterations > 0"),
            ("ircot(docs=true)", "docs_per_iteration > 0"),
            ("concat(docs=2.5)", "k_docs > 0"),
            ("concat(docs)", "expected '='"),
            ('concat(sep="oops)', "unterminated"),
            ("bm25 bm25", "trailing"),
            ("concat() junk", "trailing"),
        ]:
            with pytest.raises(ExprError) as err:
                parse(text, env)
            assert fragment in str(err.value)
            assert err.value.offset >= 0

    def test_unknown_stage_lists_known_ones(self):
        with pytest.raises(ExprError) as err:
            parse("rerank")
        assert "bm25" in str(err.value)

    def test_unknown_argument(self):
        with pytest.raises(ExprError) as err:
            parse("concat(shards=8)")
        assert "shards" in str(err.value)

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

        node = bm25_retriever(small_index) % 3
        assert print_expr(node) == "bm25 % 3"


def test_parsed_pipeline_runs_end_to_end(env, small_index):
    p = parse("bm25(k=2) >> concat >> reader(backend=stub:extract)", env)
    assert type_check(p).input is SemType.Q
    out = run(p, Frame(SemType.Q, [{"qid": "q1", "query": "eiffel tower"}]))
    assert out.rows[0]["qanswer"] == "the eiffel tower is in paris"
