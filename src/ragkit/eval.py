"""Answer scoring and the experiment runner.

Exact Match and F1 follow the SQuAD/DPR convention: answers are lowercased,
stripped of punctuation and of the articles a/an/the, and whitespace is
collapsed, before comparison. F1 is counted token overlap, maximized over
the gold answers.

The experiment runner takes the four essentials (systems, topics, gold
answers, measures) and evaluates every system over every topic, running
each one stage by stage along its `then` spine. When two or more systems
share a prefix of stages, that prefix's output is kept for the topic batch
and feeds the rest of each of them, so it runs once per batch; this cannot
change any score because transformers are pure and frames immutable. Two
prefixes are shared exactly when they compare equal under ==, so identity
stages are neutral: `p >> identity(T) >> q` shares its `p >> q` with any
system that has it. A failing stage is reported at its own path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import string
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from .errors import (
    EmptyGold,
    LengthMismatch,
    MissingGold,
    TooFewSamples,
    TypeMismatch,
    check_positive,
)
from .frame import Frame, SemType, validate
from .transformer import (
    Signature,
    Transformer,
    _spine,
    run,
    type_check,
)

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """Lowercase, drop punctuation, drop standalone articles, collapse
    whitespace. Idempotent."""
    s = s.lower()
    s = s.translate(_PUNCT_TABLE)
    s = _ARTICLE_RE.sub(" ", s)
    return " ".join(s.split())


def exact_match(qanswer: str, ganswers: Sequence[str]) -> float:
    """1.0 iff the normalized answer equals some normalized gold answer."""
    if not ganswers:
        raise EmptyGold()
    norm = normalize_answer(qanswer)
    return 1.0 if any(norm == normalize_answer(g) for g in ganswers) else 0.0


def f1(qanswer: str, ganswers: Sequence[str]) -> float:
    """Counted token-overlap F1, maximized over the gold answers."""
    if not ganswers:
        raise EmptyGold()
    pred = normalize_answer(qanswer).split()
    best = 0.0
    for g in ganswers:
        gold = normalize_answer(g).split()
        if not pred and not gold:
            best = max(best, 1.0)
            continue
        overlap = sum((Counter(pred) & Counter(gold)).values())
        if overlap == 0:
            continue
        precision = overlap / len(pred)
        recall = overlap / len(gold)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


@dataclass(frozen=True)
class Measure:
    """Per-query scoring function in [0, 1]; aggregation is always the
    arithmetic mean over the topics."""

    name: str
    per_query: Callable[[str, Sequence[str]], float]


EM = Measure("EM", exact_match)
F1 = Measure("F1", f1)

MEASURES = {"em": EM, "f1": F1}


def resolve_measures(measures: Sequence) -> list[Measure]:
    out = []
    for m in measures:
        if isinstance(m, Measure):
            out.append(m)
        elif isinstance(m, str) and m.lower() in MEASURES:
            out.append(MEASURES[m.lower()])
        else:
            valid = ", ".join(sorted(MEASURES))
            raise ValueError(f"unknown measure {m!r}; valid measures: {valid}")
    return out


# -- significance ---------------------------------------------------------------


_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a), for a > 0.

    For large a the difference of two lgamma values of size a log a would
    cancel most digits, so there the asymptotic series is summed instead;
    its first omitted term is below 2e-15 at a = 10.
    """
    if a < 10:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1 / (a * a)
    series = -1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (
        17 / 14336 + z * (-31 / 18432 + z * 691 / 180224))))
    return 0.5 * math.log(a) + series / a


def _beta_frac(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) divided by x^a y^b / B(a, b), for y = 1 - x and
    lam = (a + b) y - b >= 0, where its continued fraction converges fast.

    The fraction is evaluated as BFRAC of DiDonato and Morris (Algorithm
    708, ACM TOMS 1992) does: its even part by forward recurrence, rescaled
    at every step. With lam formed by the caller, without cancellation, no
    digits are lost near lam = 0 even when a is large.
    """
    c, c0, c1 = 1 + lam, b / a, 1 + 1 / a
    p, s = 1.0, a + 1
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 1000):  # under 200 over df 1..1e9, t 1e-12..1e6
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1 + t) / (c1 + 2 * t) * (c + n * (1 + y))
        p, s = 1 + t, s + 2
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-16 * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom, t >= 0.

    This is I_x(df/2, 1/2) with x = df / (df + t^2), the regularized
    incomplete beta function, from its continued fraction on whichever side
    of I_x(a, b) = 1 - I_{1-x}(b, a) it converges fast: the sides meet at
    t = 1.
    """
    a, b = df / 2, 0.5
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x, without the cancellation
    if not x > 0:
        return x  # t^2 overflowed, so p underflows to 0; or t is NaN
    if y == 0:
        return 1.0
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    # x^a y^b / B(a, 1/2), where B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2)
    front = math.exp(a * log_x + b * log_y + _log_gamma_ratio(a) - _LOG_SQRT_PI)
    lam = (a + b) * y - b
    if lam >= 0:
        return front * _beta_frac(a, b, x, y, lam)
    return 1 - front * _beta_frac(b, a, y, x, -lam)


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired t-test p-value over aligned per-query scores.

    The tail probability is the regularized incomplete beta function
    I_x(df/2, 1/2), x = df / (df + t^2), evaluated by its continued fraction
    (DiDonato and Morris, Algorithm 708) in ragkit itself.

    Degenerate cases are total by convention: all differences exactly zero
    gives 1.0; zero variance with nonzero mean gives 0.0 (the t statistic
    diverges).
    """
    if len(a) != len(b):
        raise LengthMismatch(len(a), len(b))
    n = len(a)
    if n < 2:
        raise TooFewSamples(n)
    diffs = [x - y for x, y in zip(a, b)]
    if all(d == 0 for d in diffs):
        return 1.0
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0:
        return 0.0
    t = mean / math.sqrt(var / n)
    return _t_two_sided(abs(t), n - 1)


def bonferroni(pvalues: Sequence[float]) -> list[float]:
    m = len(pvalues)
    return [min(1.0, p * m) for p in pvalues]


def holm(pvalues: Sequence[float]) -> list[float]:
    """Holm step-down adjustment; uniformly at most Bonferroni."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    adjusted = [0.0] * m
    running = 0.0
    for pos, i in enumerate(order):
        running = max(running, (m - pos) * pvalues[i])
        adjusted[i] = min(1.0, running)
    return adjusted


CORRECTIONS = {"bonferroni": bonferroni, "holm": holm}


# -- experiment -------------------------------------------------------------------


@dataclass
class ExperimentReport:
    systems: list[str]
    measures: list[str]
    aggregates: dict[str, dict[str, float]]
    per_query: dict[str, dict[str, dict[str, float]]]
    significance: dict[str, dict[str, float]] = field(default_factory=dict)
    baseline: str | None = None
    correction: str | None = None
    warnings: list[str] = field(default_factory=list)
    timing: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def table(self) -> str:
        """Aligned plain-text table: one row per system, one column per
        measure, p-value columns when a baseline was set ("n/a" where there
        is no p-value, as with fewer than two topics)."""
        headers = ["system"] + list(self.measures)
        if self.baseline is not None:
            headers += [f"p({m})" for m in self.measures]
        rows = []
        for name in self.systems:
            row = [name]
            row += [f"{self.aggregates[name][m]:.4f}" for m in self.measures]
            if self.baseline is not None:
                p = self.significance.get(name, {})
                row += ["baseline" if name == self.baseline else
                        f"{p[m]:.4f}" if m in p else "n/a" for m in self.measures]
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
        return "\n".join(lines)

    def per_query_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["system", "qid", "measure", "score"])
        for system in self.systems:
            for qid, scores in self.per_query[system].items():
                for measure in self.measures:
                    writer.writerow([system, qid, measure, repr(scores[measure])])
        return buf.getvalue()


def _chunks(rows: Sequence[dict], size: int | None) -> list[list[dict]]:
    if size is None:
        return [list(rows)]
    return [list(rows[i:i + size]) for i in range(0, len(rows), size)]


def experiment(
    systems: Sequence[tuple[str, Transformer]],
    topics: Frame,
    gold: Frame,
    measures: Sequence = (EM, F1),
    baseline: int | str | None = None,
    batch_size: int | None = None,
    correction: str | None = None,
    share_prefix: bool = True,
) -> ExperimentReport:
    """Evaluate question-answering systems over a topic set.

    systems are (name, pipeline) pairs; every pipeline must type-check to
    Q -> A. Every topic qid needs a gold row. baseline (a system name, or
    an index 0 <= i < len(systems)) turns on paired t-tests of each other
    system against it, per measure; correction ("holm" or "bonferroni")
    adjusts those p-values per measure across systems.

    With share_prefix, each system runs stage by stage, and the output of
    every prefix of `then` stages that two or more systems have in common
    is kept for the batch of batch_size topics, so that prefix runs once
    per batch; a failing stage is reported at its own path.
    timing["_shared_prefix"] is the seconds spent in those shared stages;
    timing[name] is the rest of that system's time. share_prefix=False
    runs each pipeline whole; scores are identical either way, only the
    work differs.
    """
    names = [name for name, _ in systems]
    if not names:
        raise ValueError("need at least one system")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate system names: {names}")
    if "_shared_prefix" in names:
        raise ValueError("system name '_shared_prefix' is reserved for timing")
    if batch_size is not None:
        check_positive(batch_size, "batch_size")
    for name, p in systems:
        sig = type_check(p)
        if sig.input is not SemType.Q or sig.output is not SemType.A:
            raise TypeMismatch(
                Signature(SemType.Q, SemType.A), sig, f"system {name!r}"
            )
    measure_list = resolve_measures(measures)
    measure_names = [m.name for m in measure_list]
    validate(topics, SemType.Q)
    validate(gold, SemType.GA)
    golds = {row["qid"]: list(row["ganswer"]) for row in gold.rows}
    for row in topics.rows:
        if row["qid"] not in golds:
            raise MissingGold(row["qid"])
    if baseline is None or baseline in names:
        baseline_name = baseline
    elif (isinstance(baseline, int) and not isinstance(baseline, bool)
          and 0 <= baseline < len(names)):
        baseline_name = names[baseline]
    else:
        raise ValueError(
            f"baseline {baseline!r} is neither a system name nor an index: {names}"
        )
    if correction is not None and correction not in CORRECTIONS:
        valid = ", ".join(sorted(CORRECTIONS))
        raise ValueError(f"unknown correction {correction!r}; valid: {valid}")

    # spines drop identity stages as == does; a prefix of two or more
    # systems' spines is kept for the batch (none is without share_prefix)
    spines = [_spine(p) if share_prefix else [p] for _, p in systems]
    users = Counter(tuple(s[:i]) for s in spines for i in range(1, len(s) + 1)
                    if share_prefix)

    answers: dict[str, dict[str, str]] = {name: {} for name in names}
    timing = {name: 0.0 for name in names}
    timing["_shared_prefix"] = 0.0
    for chunk in _chunks(topics.rows, batch_size):
        chunk_frame = Frame(SemType.Q, chunk)
        shared: dict[tuple, Frame] = {}
        for name, spine in zip(names, spines):
            out = chunk_frame
            for i, stage in enumerate(spine, 1):
                key = tuple(spine[:i])
                if key in shared:
                    out = shared[key]
                    continue
                slot = "_shared_prefix" if users[key] > 1 else name
                t0 = time.perf_counter()
                out = run(stage, out)
                timing[slot] += time.perf_counter() - t0
                if users[key] > 1:
                    shared[key] = out
            for row in out.rows:
                answers[name][row["qid"]] = row["qanswer"]

    warnings: list[str] = []
    per_query: dict[str, dict[str, dict[str, float]]] = {}
    aggregates: dict[str, dict[str, float]] = {}
    for name in names:
        per_query[name] = {}
        for row in topics.rows:
            qid = row["qid"]
            if qid in answers[name]:
                scores = {
                    m.name: m.per_query(answers[name][qid], golds[qid])
                    for m in measure_list
                }
            else:
                warnings.append(f"system {name!r} produced no answer for qid {qid!r}")
                scores = {m.name: 0.0 for m in measure_list}
            per_query[name][qid] = scores
        n = len(topics.rows)
        aggregates[name] = {
            m: (sum(per_query[name][r["qid"]][m] for r in topics.rows) / n if n else 0.0)
            for m in measure_names
        }

    significance: dict[str, dict[str, float]] = {}
    if baseline_name is not None and len(topics.rows) >= 2:
        others = [n for n in names if n != baseline_name]
        raw: dict[str, dict[str, float]] = {n: {} for n in others}
        for m in measure_names:
            base_scores = [
                per_query[baseline_name][r["qid"]][m] for r in topics.rows
            ]
            for n in others:
                sys_scores = [per_query[n][r["qid"]][m] for r in topics.rows]
                raw[n][m] = paired_ttest(sys_scores, base_scores)
            if correction is not None and others:
                adjusted = CORRECTIONS[correction]([raw[n][m] for n in others])
                for n, p in zip(others, adjusted):
                    raw[n][m] = p
        significance = raw

    return ExperimentReport(
        systems=names,
        measures=measure_names,
        aggregates=aggregates,
        per_query=per_query,
        significance=significance,
        baseline=baseline_name,
        correction=correction,
        warnings=warnings,
        timing=timing,
    )
