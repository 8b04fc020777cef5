"""The three benchmark workloads and the loop that measures them.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, as for a library caller. Inputs come
only from the seed. Generation goes through the real HttpBackend to the
fake server in fake_llm.py, which runs in its own process so that its CPU
does not compete with ragkit for the interpreter lock.
"""

from __future__ import annotations

import gc
import itertools
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import requests

import ragkit as rk
import fake_llm
from corpus import ZipfText
from tracing import TracedBM25Retriever, Tracer, TracingBackend, layer_metrics

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"
Q, GA = rk.SemType.Q, rk.SemType.GA

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "index.build_s": "s",
    "index.save_s": "s",
    "index.load_s": "s",
    "index.fingerprint_s": "s",
    "index.apply_ms_per_query": "ms",
    "index.postings_per_query": "count",
    "index.results_per_query": "count",
    "frame.validate_calls": "count/op",
    "frame.validated_rows": "rows/op",
    "frame.validate_pct": "%",
    "transformer.run_overhead_pct": "%",
    "rag.generate_calls": "count/op",
    "rag.prompts": "count/op",
    "rag.prompt_chars": "chars/op",
    "rag.prompts_over_budget": "count/op",
    "rag.generate_pct": "%",
    "rag.context_pct": "%",
    "rag.ircot_steps": "count/op",
    "eval.retrieval_calls": "count/op",
    "eval.shared_prefix_pct": "%",
    "eval.scoring_pct": "%",
    "datasets.run_lines_pct": "%",
    "trace.overhead_pct": "%",
}
RTT_LIMIT_MS = 10.0


@dataclass
class Phase:
    latencies: list[float]
    items: list[int]
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def throughput(self) -> float:
        """Median over ten blocks of consecutive operations of results per
        second; a median, so that a burst of host noise moves it less."""
        size = max(1, len(self.latencies) // 10)
        rates = [
            sum(self.items[i:i + size]) / sum(self.latencies[i:i + size])
            for i in range(0, len(self.latencies) - size + 1, size)
        ]
        return statistics.median(rates)


class Workload:
    """Sizes and operations of one workload; subclasses fill in the rest."""

    name = ""
    n_docs = 20_000
    vocab = 20_000
    doc_len = 60
    query_terms = 5
    setup_reps = 5
    batch = 1            # topics per operation
    pool = 512           # distinct topics, cycled through in batches
    min_ops = 5
    delay_ms: float | None = 20.0
    warmup_ops = 1
    think_s = 0.0        # client pause after each operation, outside its timing

    def __init__(self, **sizes) -> None:
        for key, value in sizes.items():
            if not hasattr(self, key):
                raise AttributeError(f"{self.name} has no size {key!r}")
            setattr(self, key, value)
        self.index: rk.InvertedIndex | None = None
        self.base_url: str | None = None
        self.errors: list[str] = []
        self._session = local_session()

    def topics(self, text: ZipfText) -> list[dict]:
        return distinct_topics(text, self.pool, self.query_terms)

    def make_op(self, tracer: Tracer | None):
        raise NotImplementedError

    def prepare(self, batch: list[dict]):
        """Untimed work before an operation; returns the operation's input."""
        return rk.Frame(Q, batch)

    def check(self, inp, out) -> int:
        """Record errors in `out`; return how many results it delivered."""
        raise NotImplementedError

    def final_checks(self) -> None:
        pass

    def http(self, **kwargs) -> rk.HttpBackend:
        return rk.HttpBackend("fake", base_url=self.base_url, session=local_session(), **kwargs)

    def reset_server(self) -> None:
        self._session.post(f"{self.base_url}/reset", json={}, timeout=10).raise_for_status()


def local_session() -> requests.Session:
    # the server is on localhost: never route it through a proxy from the environment
    session = requests.Session()
    session.trust_env = False
    return session


def distinct_topics(text: ZipfText, n: int, terms: int, accept=lambda q: True) -> list[dict]:
    # the server keys its state on the question text, so no two topics share it
    seen: set[str] = set()
    out = []
    while len(out) < n:
        q = text.words(terms)
        if q not in seen and accept(q):
            seen.add(q)
            out.append({"qid": f"q{len(out):05d}", "query": q})
    return out


class Search(Workload):
    name = "search"
    pool = 20_000
    min_ops = 200  # so that ten or more latencies lie beyond the p95
    delay_ms = None
    # the caller does other work between queries; without the pause a busy
    # loop's speed tracks how much CPU a shared host grants it, which swings
    # search latency by up to 2x between runs
    think_s = 0.03
    warmup_ops = 5
    k = 1000
    oracle_sample = 5

    def __init__(self, **sizes) -> None:
        super().__init__(**sizes)
        self.kept: list[tuple[dict, rk.Frame]] = []

    def make_op(self, tracer):
        if tracer is None:
            retriever = rk.BM25Retriever(self.index, num_results=self.k)
            run, run_lines = rk.run, rk.run_lines
        else:
            retriever = TracedBM25Retriever(tracer, self.index, num_results=self.k)
            run = tracer.wrap_run(rk.run)
            run_lines = tracer.wrap("datasets.run_lines", rk.run_lines)

        def op(frame):
            out = run(retriever, frame)
            return out, run_lines(out)

        return op

    def check(self, frame, result) -> int:
        out, lines = result
        (topic,) = frame.rows
        rows = out.rows
        ok = (
            len(rows) <= self.k
            and len(lines) == len(rows)
            and all(r["qid"] == topic["qid"] and r["rank"] == i for i, r in enumerate(rows))
            and all(a["score"] >= b["score"] for a, b in zip(rows, rows[1:]))
        )
        if not ok:
            self.errors.append(f"search: malformed ranking for {topic['qid']}")
        if len(self.kept) < self.oracle_sample:
            self.kept.append((topic, out))
        return 1

    def final_checks(self) -> None:
        idx = self.index
        stats = _FixedAvgdl(idx)
        for topic, out in self.kept:
            terms = idx.tokenizer.tokenize(topic["query"])
            scored = [
                (s, idx.docno(d))
                for d in range(idx.n_docs)
                if (s := rk.bm25_score(stats, terms, d)) > 0
            ]
            scored.sort(key=lambda x: (-x[0], x[1]))
            want = [(docno, s) for s, docno in scored[: self.k]]
            got = [(r["docno"], r["score"]) for r in out.rows]
            if got != want:
                self.errors.append(f"search: {topic['qid']} differs from the bm25_score oracle")


class _FixedAvgdl:
    """The index as bm25_score reads it, with avgdl summed once instead of
    on every call; the value, and so every score, is the same."""

    def __init__(self, index: rk.InvertedIndex) -> None:
        self.n_docs = index.n_docs
        self.avgdl = index.avgdl
        self.doclen = index.doclen
        self.postings = index.postings


class RagExperiment(Workload):
    name = "rag_experiment"
    batch = 8
    min_ops = 5
    subset = 8

    def systems(self, tracer):
        backend = self.http()
        bm25 = rk.BM25Retriever(self.index, include_fields=("text",))
        if tracer is not None:
            backend = TracingBackend(backend, tracer)
            bm25 = TracedBM25Retriever(tracer, self.index, include_fields=("text",))
        # the zero-shot system shares no prefix with the others, which
        # switches prefix sharing off for all of them
        return [("zero_shot", rk.zero_shot(backend))] + [
            (f"rag_k{k}", bm25 % 10 >> rk.Concatenator(k_docs=k) >> rk.reader(backend))
            for k in (3, 5, 10)
        ]

    def make_op(self, tracer):
        systems = self.systems(tracer)
        experiment = rk.experiment if tracer is None else tracer.wrap_experiment(rk.experiment)

        def op(inp):
            topics, gold = inp
            return experiment(systems, topics, gold, baseline="zero_shot", correction="holm")

        return op

    def prepare(self, batch):
        self.reset_server()
        return rk.Frame(Q, batch), gold_frame(batch)

    def check(self, inp, report) -> int:
        topics, gold = inp
        golds = {r["qid"]: r["ganswer"] for r in gold.rows}
        if report.warnings:
            self.errors.append(f"rag_experiment: {report.warnings[0]}")
        for row in topics.rows:
            qid = row["qid"]
            got = sorted(
                tuple(report.per_query[name].get(qid, {}).values()) for name in report.systems
            )
            # one answer per system; each is the server's reply to one of the
            # question's sightings 1..n, whichever order the systems ran in
            want = sorted(
                (rk.exact_match(a, golds[qid]), rk.f1(a, golds[qid]))
                for a in (fake_llm.answer(row["query"], c) for c in range(1, len(report.systems) + 1))
            )
            if got != want:
                self.errors.append(f"rag_experiment: wrong answers for {qid}")
        return len(topics) * len(report.systems)

    def final_checks(self) -> None:
        batch = self.all_topics[: self.subset]
        systems = self.systems(None)
        reports = []
        for share in (True, False):
            self.reset_server()
            report = rk.experiment(
                systems, rk.Frame(Q, batch), gold_frame(batch),
                baseline="zero_shot", correction="holm", share_prefix=share,
            )
            reports.append({k: v for k, v in report.to_dict().items() if k != "timing"})
        if reports[0] != reports[1]:
            self.errors.append("rag_experiment: report with prefix sharing differs from without")


def gold_frame(batch: list[dict]) -> rk.Frame:
    return rk.Frame(GA, [
        {"qid": t["qid"], "ganswer": [fake_llm.answer(t["query"], fake_llm.exit_step(t["query"]))]}
        for t in batch
    ])


class Ircot(Workload):
    name = "ircot"
    n_docs = 2_000
    setup_reps = 21
    batch = 8      # two questions of each exit step 1..4, so every op does 20 steps
    min_ops = 10
    # step 1's four documents alone exceed it, so every step fits its prompt
    max_input_chars = 1_500

    def topics(self, text):
        buckets = {n: distinct_topics(text, self.pool // 4, self.query_terms,
                                      lambda q, n=n: fake_llm.exit_step(q) == n)
                   for n in range(1, 5)}
        per = self.batch // 4
        out = []
        for i in range(0, self.pool // 4, per):
            for n in range(1, 5):
                out += buckets[n][i:i + per]
        for i, t in enumerate(out):
            t["qid"] = f"q{i:05d}"
        return out

    def make_op(self, tracer):
        backend = self.http(max_input_chars=self.max_input_chars)
        retriever = rk.BM25Retriever(self.index, num_results=100, include_fields=("text",))
        run = rk.run
        if tracer is not None:
            backend = TracingBackend(backend, tracer)
            retriever = TracedBM25Retriever(tracer, self.index, num_results=100,
                                            include_fields=("text",))
            run = tracer.wrap_run(rk.run)
        pipeline = rk.ircot(retriever, backend, max_iterations=4, docs_per_iteration=4)

        def op(frame):
            out = run(pipeline, frame)
            if tracer is not None:
                tracer.counts["rag.ircot_steps"] += sum(r["iterations"] for r in out.rows)
            return out

        return op

    def prepare(self, batch):
        self.reset_server()
        return rk.Frame(Q, batch)

    def check(self, frame, out) -> int:
        got = {r["qid"]: (r["qanswer"], r["iterations"]) for r in out.rows}
        want = {
            t["qid"]: (fake_llm.answer_word(t["query"]), fake_llm.exit_step(t["query"]))
            for t in frame.rows
        }
        if len(out.rows) != len(frame.rows) or got != want:
            self.errors.append(f"ircot: wrong answers in batch starting {frame.rows[0]['qid']}")
        return len(out.rows)


WORKLOADS = {w.name: w for w in (Search, RagExperiment, Ircot)}


# -- set-up -------------------------------------------------------------------


def set_up(docs: list[dict], reps: int):
    """Build, save, load and fingerprint the index `reps` times; returns the
    last loaded index and the per-stage seconds of every repetition."""
    WORK.mkdir(exist_ok=True)
    stages = []
    index = None
    for _ in range(reps):
        index = None
        gc.collect()
        directory = tempfile.mkdtemp(dir=WORK)
        try:
            t0 = time.perf_counter()
            built = rk.index_corpus(docs)
            t1 = time.perf_counter()
            built.save(directory)
            t2 = time.perf_counter()
            del built
            gc.collect()
            t3 = time.perf_counter()
            index = rk.InvertedIndex.load(directory)
            t4 = time.perf_counter()
            rk.BM25Retriever(index)  # fingerprints the loaded index
            t5 = time.perf_counter()
        finally:
            shutil.rmtree(directory)
        stages.append({
            "index.build_s": t1 - t0,
            "index.save_s": t2 - t1,
            "index.load_s": t4 - t3,
            "index.fingerprint_s": t5 - t4,
        })
    return index, stages


@contextmanager
def fake_llm_server(delay_ms: float):
    """Start fake_llm.py in its own process; yield its base URL."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "fake_llm.py"), "--delay-ms", str(delay_ms)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"fake LLM server did not start: {line!r}")
        yield f"http://127.0.0.1:{int(line.split()[1])}/v1"
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def check_round_trip(base_url: str) -> float:
    """Median zero-delay round trip in ms; fails when a transport stall
    (such as Nagle's algorithm meeting delayed ACKs) would swamp the delay."""
    ping = rk.HttpBackend("ping", base_url=base_url, session=local_session())
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        ping.generate(["Question: ping"])
        times.append(time.perf_counter() - t0)
    rtt_ms = 1000 * statistics.median(times)
    if rtt_ms > RTT_LIMIT_MS:
        raise RuntimeError(
            f"zero-delay round trip to the fake server takes {rtt_ms:.1f} ms "
            f"(limit {RTT_LIMIT_MS} ms)"
        )
    return rtt_ms


# -- measurement ----------------------------------------------------------------


def measure(wl: Workload, op, batches, seconds: float, min_ops: int) -> Phase:
    """Closed loop: run operations until `seconds` have passed and at least
    `min_ops` were attempted (hard stop at four times `seconds`)."""
    phase = Phase([], [])
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and phase.attempted >= min_ops:
            return phase
        if seconds > 0 and elapsed >= 4 * seconds and phase.attempted > 0:
            return phase
        inp = wl.prepare(next(batches))
        t0 = time.perf_counter()
        try:
            out = op(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            phase.failed += 1
            wl.errors.append(f"{wl.name}: operation failed: {exc!r}")
            continue
        phase.latencies.append(time.perf_counter() - t0)
        phase.items.append(wl.check(inp, out))
        time.sleep(wl.think_s)


def batches_of(topics: list[dict], size: int):
    for i in itertools.count():
        start = (i * size) % len(topics)
        yield topics[start:start + size]


def measure_phases(wl: Workload, tracer: Tracer, seconds: float, trace: bool,
                   info: dict) -> list[Phase]:
    """Warm up and measure the untraced phase, then the traced one if asked,
    and run the workload's final output checks."""
    phases = []
    server = fake_llm_server(wl.delay_ms) if wl.delay_ms is not None else nullcontext()
    with server as wl.base_url:
        if wl.base_url is not None:
            info["rtt_ms"] = check_round_trip(wl.base_url)
        batches = batches_of(wl.all_topics, wl.batch)
        modes = [None, tracer] if trace else [None]
        for tr in modes:
            op = wl.make_op(tr)
            with tracer.patched() if tr is not None else nullcontext():
                measure(wl, op, batches, 0, wl.warmup_ops)
                tracer.spans.clear()
                tracer.counts.clear()
                phases.append(measure(wl, op, batches, seconds / len(modes),
                                      max(1, wl.min_ops // len(modes))))
        wl.final_checks()
    return phases


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload and return what the benchmark prints.

    `sizes` overrides the workload's size attributes (tests shrink it)."""
    wl = WORKLOADS[name](**(sizes or {}))
    text = ZipfText(seed, wl.vocab)
    docs = text.documents(wl.n_docs, wl.doc_len)
    wl.all_topics = wl.topics(text)
    # half the set-up repetitions run before the timed phases and half after,
    # so that their median spans the run instead of one stretch of host noise
    wl.index, setup_stages = set_up(docs, wl.setup_reps - wl.setup_reps // 2)
    info = {"docs": wl.index.n_docs, "topics": len(wl.all_topics), "setup_reps": wl.setup_reps}
    tracer = Tracer()
    phases = measure_phases(wl, tracer, seconds, trace, info)
    wl.index = None
    setup_stages += set_up(docs, wl.setup_reps // 2)[1]
    del docs

    if not all(p.latencies for p in phases):
        raise RuntimeError(f"{name}: no operation completed: {wl.errors[:1]}")
    main = phases[0]
    info["ops"] = len(main.latencies)
    if len(main.latencies) >= 200:
        info["latency_p95_ms"] = 1000 * statistics.quantiles(main.latencies, n=20)[18]
    if trace:
        traced = phases[1]
        values = {
            k: statistics.median(s[k] for s in setup_stages) for k in setup_stages[0]
        }
        values.update(layer_metrics(tracer, len(traced.latencies), sum(traced.latencies)))
        values["trace.overhead_pct"] = 100 * (
            statistics.median(traced.latencies) / statistics.median(main.latencies) - 1
        )
        tracer.dump(WORK / f"spans-{name}-{seed}.json")
        units = PER_LAYER_UNITS
    else:
        values = {
            "latency_p50_ms": 1000 * statistics.median(main.latencies),
            "throughput_per_s": main.throughput(),
            "setup_s": statistics.median(sum(s.values()) for s in setup_stages),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    failed = sum(p.failed for p in phases)
    return {
        "info": info,
        "errors": wl.errors,
        "result": {
            "correct": not wl.errors and failed == 0,
            "attempted": sum(p.attempted for p in phases),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
    }
