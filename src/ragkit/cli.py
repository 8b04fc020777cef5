"""Command-line interface.

Subcommands: index (build an index directory from JSONL corpora), search
(ad-hoc retrieval printing run lines), ask (run a pipeline expression over
one question), experiment (evaluate systems over a topic set), convert
(rewrite id/contents style files into this tool's layout).

Everything is flag-driven; there are no config files. HTTP backends read
RAGKIT_API_KEY (and optionally RAGKIT_BASE_URL) from the environment.
Exit code 0 on success, 1 on any error, with the message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .datasets import (
    convert_qa_corpus,
    convert_qa_topics,
    load_answers,
    load_corpus,
    load_topics,
    run_lines,
)
from .errors import RagkitError, check_positive
from .eval import experiment
from .exprs import Env, parse
from .frame import Frame, SemType
from .index import InvertedIndex, Tokenizer, index_corpus
from .transformer import run, type_check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragkit",
        description="Typed retrieval-augmented-generation pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"ragkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from JSONL corpora")
    p_index.add_argument("--corpus", nargs="+", required=True,
                         help="JSONL corpus file(s) with docno and text")
    p_index.add_argument("--out", required=True, help="index directory to write")
    p_index.add_argument("--store-fields", default="text",
                         help="comma-separated fields to store for re-attachment")
    p_index.add_argument("--stopwords", default=None,
                         help="file with one stopword per line (default: none)")

    p_search = sub.add_parser("search", help="BM25 retrieval, run lines to stdout")
    p_search.add_argument("--index", required=True, help="index directory")
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="single ad-hoc query")
    group.add_argument("--topics", help="JSONL topics file with qid and query")
    p_search.add_argument("-k", type=int, default=10, help="results per query")
    p_search.add_argument("--tag", default="bm25", help="run tag (last column)")
    p_search.add_argument("--k1", type=float, default=1.2)
    p_search.add_argument("--b", type=float, default=0.75)

    p_ask = sub.add_parser("ask", help="answer one question with a pipeline")
    p_ask.add_argument("--index", help="index directory (needed by bm25/attach/ircot)")
    p_ask.add_argument("--pipeline", required=True,
                       help='e.g. "bm25(k=10) >> concat(docs=5) >> reader(backend=stub:echo)"')
    p_ask.add_argument("--question", required=True)
    p_ask.add_argument("--trace", action="store_true",
                       help="print per-stage row counts to stderr")

    p_exp = sub.add_parser("experiment", help="evaluate systems over topics")
    p_exp.add_argument("--index", help="index directory")
    p_exp.add_argument("--system", action="append", required=True,
                       metavar="NAME=EXPR",
                       help="system name and pipeline expression (repeatable)")
    p_exp.add_argument("--topics", required=True, help="JSONL topics file")
    p_exp.add_argument("--answers", required=True, help="JSONL gold answers file")
    p_exp.add_argument("--measures", default="em,f1",
                       help="comma-separated measures (em, f1)")
    p_exp.add_argument("--baseline", default=None,
                       help="system name for paired significance tests")
    p_exp.add_argument("--correction", nargs="?", const="holm", default=None,
                       choices=["holm", "bonferroni"],
                       help="multiple-testing correction (default when given: holm)")
    p_exp.add_argument("--batch-size", type=int, default=None)
    p_exp.add_argument("--no-share-prefix", action="store_true",
                       help="evaluate each pipeline independently")
    p_exp.add_argument("--report", default="experiment_report.json",
                       help="where to write the JSON report")
    p_exp.add_argument("--csv", default=None,
                       help="optionally dump per-query scores as CSV")

    p_conv = sub.add_parser("convert",
                            help="convert id/contents style JSONL files")
    conv_sub = p_conv.add_subparsers(dest="what", required=True)
    c_corpus = conv_sub.add_parser("corpus", help="id/contents -> docno/text")
    c_corpus.add_argument("src")
    c_corpus.add_argument("dst")
    c_qa = conv_sub.add_parser("qa",
                               help="id/question/golden_answers -> topics + answers")
    c_qa.add_argument("src")
    c_qa.add_argument("topics_dst")
    c_qa.add_argument("answers_dst")

    return parser


def _env_for(index_dir: str | None) -> Env:
    if index_dir is None:
        return Env()
    return Env(index_provider=lambda: InvertedIndex.load(index_dir))


def cmd_index(args) -> int:
    stopwords: list[str] = []
    if args.stopwords:
        stopwords = [
            w.strip() for w in Path(args.stopwords).read_text(encoding="utf-8").splitlines()
            if w.strip()
        ]
    fields = [f.strip() for f in args.store_fields.split(",") if f.strip()]
    idx = index_corpus(
        load_corpus(args.corpus), fields_to_store=fields,
        tokenizer=Tokenizer(stopwords),
    )
    idx.save(args.out)
    print(json.dumps({"N": idx.n_docs, "avgdl": idx.avgdl, "terms": idx.n_terms}))
    return 0


def cmd_search(args) -> int:
    from .index import BM25Params, bm25_retriever

    check_positive(args.k)  # named as the -k flag, and before the index loads
    idx = InvertedIndex.load(args.index)
    if args.query is not None:
        topics = Frame(SemType.Q, [{"qid": "1", "query": args.query}])
    else:
        topics = load_topics(args.topics)
    retriever = bm25_retriever(
        idx, BM25Params(k1=args.k1, b=args.b), num_results=args.k
    )
    out = run(retriever, topics)
    for line in run_lines(out, tag=args.tag):
        print(line)
    return 0


def cmd_ask(args) -> int:
    pipeline = parse(args.pipeline, _env_for(args.index))
    sig = type_check(pipeline)
    if sig.input is not SemType.Q or sig.output is not SemType.A:
        print(
            f"error: pipeline must map Q -> A, this one is {sig}",
            file=sys.stderr,
        )
        return 1
    topics = Frame(SemType.Q, [{"qid": "1", "query": args.question}])
    trace = None
    if args.trace:
        def trace(path, name, rows):
            print(f"trace: {path}: {rows} rows", file=sys.stderr)
    out = run(pipeline, topics, trace=trace)
    for row in out.rows:
        print(row["qanswer"])
    return 0


def cmd_experiment(args) -> int:
    env = _env_for(args.index)
    systems = []
    for spec in args.system:
        name, sep, expr = spec.partition("=")
        if not sep or not name.strip() or not expr.strip():
            print(f"error: --system expects NAME=EXPR, got {spec!r}", file=sys.stderr)
            return 1
        systems.append((name.strip(), parse(expr.strip(), env)))
    topics = load_topics(args.topics)
    gold = load_answers(args.answers)
    report = experiment(
        systems,
        topics,
        gold,
        measures=[m.strip() for m in args.measures.split(",") if m.strip()],
        baseline=args.baseline,
        batch_size=args.batch_size,
        correction=args.correction,
        share_prefix=not args.no_share_prefix,
    )
    Path(args.report).write_text(report.to_json())
    if args.csv:
        Path(args.csv).write_text(report.per_query_csv())
    print(report.table())
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_convert(args) -> int:
    if args.what == "corpus":
        n = convert_qa_corpus(args.src, args.dst)
        print(json.dumps({"documents": n}))
    else:
        n = convert_qa_topics(args.src, args.topics_dst, args.answers_dst)
        print(json.dumps({"topics": n}))
    return 0


_COMMANDS = {
    "index": cmd_index,
    "search": cmd_search,
    "ask": cmd_ask,
    "experiment": cmd_experiment,
    "convert": cmd_convert,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RagkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
