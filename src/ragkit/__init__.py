"""ragkit: declarative, typed retrieval-augmented-generation pipelines.

Build pipelines from typed transformers with four operators (>> then,
+ score combination, | set union, % rank cutoff), retrieve with a built-in
BM25 index, generate with pluggable backends, and evaluate with EM/F1 and
paired significance tests. When one experiment compares pipelines, any
leading stages that two or more of them share run once per topic batch.
"""

from .errors import (
    BackendError,
    DuplicateDocno,
    DuplicateKey,
    EmptyGold,
    ExprError,
    InvalidK,
    KindMismatch,
    LengthMismatch,
    MissingColumn,
    MissingField,
    MissingGold,
    MissingSplit,
    ParseError,
    PipelineError,
    RagkitError,
    RankViolation,
    TemplateError,
    TooFewSamples,
    TypeMismatch,
    UnknownDataset,
    UnknownDocno,
    ValidationError,
)
from .frame import Frame, SemType, assign_ranks, concat, terminal_frame, validate
from .transformer import (
    TERMINAL,
    CombineSum,
    FnTransformer,
    RankCutoff,
    SetUnion,
    Signature,
    Then,
    Transformer,
    chain,
    combine_sum,
    components,
    identity,
    rank_cutoff,
    run,
    set_union,
    then,
    type_check,
)
from .index import (
    BM25Params,
    BM25Retriever,
    Indexer,
    InvertedIndex,
    TextAttacher,
    Tokenizer,
    attach_text,
    bm25_retriever,
    bm25_score,
    index_corpus,
    indexer,
)
from .rag import (
    Backend,
    Concatenator,
    DEFAULT_ITERATIVE_TEMPLATE,
    DEFAULT_RAG_TEMPLATE,
    DEFAULT_ZERO_SHOT_TEMPLATE,
    HttpBackend,
    IterativeRetriever,
    PromptRenderer,
    PromptTemplate,
    Reader,
    StubBackend,
    ZeroShot,
    concatenate_context,
    ircot,
    reader,
    render_prompt,
    zero_shot,
)
from .datasets import (
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
from .eval import (
    EM,
    F1,
    MEASURES,
    ExperimentReport,
    Measure,
    bonferroni,
    exact_match,
    experiment,
    f1,
    holm,
    normalize_answer,
    paired_ttest,
    resolve_measures,
)
from .exprs import Env, parse, print_expr

__version__ = "0.1.0"
