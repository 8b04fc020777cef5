"""Spans recorded from outside ragkit, at the public boundary of each module.

Nothing here changes what ragkit computes. A traced run swaps in:

- TracedBM25Retriever, a BM25Retriever subclass whose name and params are
  unchanged, so pipelines keep their structural identity and prefix sharing
  behaves exactly as untraced;
- TracingBackend, a delegating Backend with the wrapped backend's
  descriptor and input budget;
- wrappers for `validate` and `run` at the module attributes through which
  other modules call them (patched for the traced phase only), with a
  `run(..., trace=...)` callback that timestamps each finished stage.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import ragkit
import ragkit.datasets
import ragkit.eval
import ragkit.frame
import ragkit.rag
import ragkit.transformer

COMPOSITES = frozenset({"then", "rank_cutoff", "combine_sum", "set_union"})
RAG_STAGES = frozenset({"concat", "prompt", "reader", "zero_shot", "ircot"})


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    data: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **data) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else -1, data=data)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, rows_of=None):
        """`fn` with a span around every call; `rows_of(args)` adds a row count."""

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if rows_of is not None:
                span.data["rows"] = rows_of(args)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(span)

        return wrapper

    def wrap_run(self, run):
        """`run` with a span and a stage callback that timestamps every node."""

        def traced_run(p, frame, trace=None):
            span = self.begin("transformer.run")
            stages = span.data["stages"] = []

            def on_stage(path, name, rows):
                stages.append((time.perf_counter(), name))
                if trace is not None:
                    trace(path, name, rows)

            try:
                return run(p, frame, on_stage)
            finally:
                self.finish(span)

        return traced_run

    def wrap_experiment(self, experiment):
        """`experiment` with a span carrying the report's own timing."""

        def traced_experiment(*args, **kwargs):
            span = self.begin("eval.experiment", shared_prefix=0.0, timed=0.0)
            try:
                report = experiment(*args, **kwargs)
            finally:
                self.finish(span)
            span.data["shared_prefix"] = report.timing["_shared_prefix"]
            span.data["timed"] = sum(report.timing.values())
            return report

        return traced_experiment

    def patched(self):
        """Context manager wrapping cross-module calls for the traced phase."""
        validate = self.wrap("frame.validate", ragkit.frame.validate, lambda a: len(a[0]))
        run = self.wrap_run(ragkit.transformer.run)
        return _Patch([
            (ragkit.transformer, "validate", validate),
            (ragkit.datasets, "validate", validate),
            (ragkit.eval, "validate", validate),
            (ragkit.eval, "run", run),
            (ragkit.rag, "run", run),
        ])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]))


class _Patch:
    def __init__(self, items) -> None:
        self.items = items
        self.saved: list = []

    def __enter__(self):
        for module, attr, value in self.items:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()


class TracedBM25Retriever(ragkit.BM25Retriever):
    """BM25Retriever recording one span per apply, with exact work counts."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def apply(self, frame):
        idx = self.index
        postings = sum(
            idx.df(t) for row in frame.rows for t in idx.tokenizer.tokenize(row["query"])
        )
        span = self.tracer.begin("index.apply", queries=len(frame), postings=postings)
        try:
            out = super().apply(frame)
        finally:
            self.tracer.finish(span)
        span.data["results"] = len(out)
        return out


class TracingBackend(ragkit.Backend):
    """Delegates to `inner`, recording one span per generate call."""

    def __init__(self, inner: ragkit.Backend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.descriptor = inner.descriptor
        self.max_input_chars = inner.max_input_chars

    def generate(self, prompts, system=""):
        span = self.tracer.begin(
            "rag.generate",
            prompts=len(prompts),
            chars=sum(len(p) for p in prompts),
            over_budget=sum(len(p) > self.max_input_chars for p in prompts),
        )
        try:
            return self.inner.generate(prompts, system)
        finally:
            self.tracer.finish(span)


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer figures of a traced phase of `ops` operations that kept the
    client busy for `op_seconds`. Times are shares of `op_seconds` in %,
    counts are per operation unless named per query."""
    spans = tracer.spans
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def total(name: str, key: str | None = None) -> float:
        return sum(s.data[key] if key else s.seconds for s in spans if s.name == name)

    overhead = rag_self = 0.0
    for i, run_span in enumerate(spans):
        if run_span.name != "transformer.run":
            continue
        kids = children[i]
        stages = run_span.data["stages"]
        # the first child is the input validation; the tree starts after it
        prev = kids[0].end if kids else run_span.start
        first, leaves = prev, 0.0
        for t, name in stages:
            if name not in COMPOSITES:
                leaves += t - prev
                if name in RAG_STAGES:
                    inside = sum(k.seconds for k in kids if k.start >= prev and k.end <= t)
                    rag_self += t - prev - inside
            prev = t
        last = prev
        boundary_validation = sum(
            k.seconds for k in kids
            if k.name == "frame.validate" and (k.end <= first or k.start >= last)
        )
        overhead += run_span.seconds - leaves - boundary_validation

    experiments = [s for s in spans if s.name == "eval.experiment"]
    queries = total("index.apply", "queries")
    pct = 100.0 / op_seconds

    def per_query(value: float) -> float:
        return value / queries if queries else 0.0

    return {
        "index.apply_ms_per_query": per_query(1000.0 * total("index.apply")),
        "index.postings_per_query": per_query(total("index.apply", "postings")),
        "index.results_per_query": per_query(total("index.apply", "results")),
        "frame.validate_calls": sum(s.name == "frame.validate" for s in spans) / ops,
        "frame.validated_rows": total("frame.validate", "rows") / ops,
        "frame.validate_pct": pct * total("frame.validate"),
        "transformer.run_overhead_pct": pct * overhead,
        "rag.generate_calls": sum(s.name == "rag.generate" for s in spans) / ops,
        "rag.prompts": total("rag.generate", "prompts") / ops,
        "rag.prompt_chars": total("rag.generate", "chars") / ops,
        "rag.prompts_over_budget": total("rag.generate", "over_budget") / ops,
        "rag.generate_pct": pct * total("rag.generate"),
        "rag.context_pct": pct * rag_self,
        "rag.ircot_steps": tracer.counts["rag.ircot_steps"] / ops,
        "eval.retrieval_calls": sum(s.name == "index.apply" for s in spans) / ops,
        "eval.shared_prefix_pct": pct * sum(s.data["shared_prefix"] for s in experiments),
        "eval.scoring_pct": pct * sum(s.seconds - s.data["timed"] for s in experiments),
        "datasets.run_lines_pct": pct * total("datasets.run_lines"),
    }
