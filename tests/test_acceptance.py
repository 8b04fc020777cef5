"""Whole-package acceptance checks, one test per headline guarantee.

Every test here pins one end-to-end guarantee at an explicit tolerance.
Where the guarantee is agreement with a reference behaviour, the reference
is implemented independently inside this file (exhaustive BM25 scorer,
recursive signature checker, hand-computed worked example) rather than by
calling back into the code under test. The summary hook in conftest.py
prints one PASS/FAIL line per test in this module at the end of the run.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from random import Random

from conftest import (
    counted,
    mock_retriever,
    random_corpus,
    random_result_table,
    reranker,
)
from ragkit.datasets import read_run, write_run
from ragkit.errors import TypeMismatch, ValidationError
from ragkit.eval import exact_match, experiment, f1, normalize_answer
from ragkit.frame import Frame, SemType, assign_ranks, validate
from ragkit.index import BM25Retriever, index_corpus
from ragkit.rag import (
    Concatenator,
    HttpBackend,
    IterativeRetriever,
    StubBackend,
    reader,
    zero_shot,
)
from ragkit.transformer import (
    FAMILIES,
    TERMINAL,
    CombineSum,
    FnTransformer,
    RankCutoff,
    SetUnion,
    Signature,
    Then,
    chain,
    combine_sum,
    identity,
    rank_cutoff,
    run,
    set_union,
    then,
    type_check,
)


def counting_text_retriever(table, texts, name="shared_ret"):
    """Q -> R mock that attaches a text field and counts its invocations.

    calls["applies"] is the number of apply() calls, calls["rows"] the total
    number of query rows seen across them; a pipeline prefix evaluated once
    per topic set therefore shows rows == n_topics, one evaluated per system
    shows rows == n_topics * n_systems.
    """
    calls = {"applies": 0, "rows": 0}

    def apply(frame):
        calls["applies"] += 1
        calls["rows"] += len(frame)
        rows = []
        for r in frame.rows:
            for docno, score in table.get(r["qid"], ()):
                rows.append({
                    "qid": r["qid"], "docno": docno, "score": float(score),
                    "query": r["query"], "text": texts[docno],
                })
        return assign_ranks(rows)

    t = FnTransformer(Signature(SemType.Q, SemType.R), name, apply,
                      params=(("table", name),))
    return t, calls


# -- criterion 1: BM25 against an exhaustive scoring oracle ---------------------


def _oracle_bm25(docs, query, k1=1.2, b=0.75):
    """Independent BM25 reference: own tokenizer, own corpus statistics,
    exhaustive scoring of every document (no inverted index). Returns
    [(docno, score)] sorted by (score desc, docno asc), matched docs only.
    Per-document summation runs in query term order with one contribution
    per query term occurrence, which is the documented scoring order."""
    toks = lambda s: re.findall(r"[a-z0-9]+", s.lower())
    doc_tokens = {d["docno"]: toks(d["text"]) for d in docs}
    n = len(docs)
    avgdl = sum(len(t) for t in doc_tokens.values()) / n
    df: dict[str, int] = {}
    for tokens in doc_tokens.values():
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    qterms = toks(query)
    scored = []
    for d in docs:
        tokens = doc_tokens[d["docno"]]
        dl = len(tokens)
        score = 0.0
        matched = False
        for term in qterms:
            tf = tokens.count(term)
            if tf == 0:
                continue
            matched = True
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
        if matched:
            scored.append((d["docno"], score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def test_criterion_1_bm25_matches_exhaustive_oracle():
    # 50 random corpora (up to 100 docs, up to 20-term vocabulary), 20 random
    # queries each; retriever output must equal the oracle exactly, scores
    # bit for bit and ties in the same order, in under 10 seconds total.
    rng = Random(101)
    started = time.perf_counter()
    for corpus_no in range(50):
        vocab_size = rng.randint(3, 20)
        docs = random_corpus(rng, rng.randint(1, 100), vocab_size=vocab_size)
        idx = index_corpus(docs)
        retriever = BM25Retriever(idx)
        vocab = [f"t{i}" for i in range(vocab_size)]
        queries = []
        for j in range(20):
            terms = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                terms.append(terms[0])  # repeated term: contributes twice
            if rng.random() < 0.25:
                terms.append("zzzunseen")  # unseen term: contributes nothing
            queries.append({"qid": f"q{j:02d}", "query": " ".join(terms)})
        out = run(retriever, Frame(SemType.Q, queries))
        by_qid: dict[str, list[dict]] = {q["qid"]: [] for q in queries}
        for row in out.rows:
            by_qid[row["qid"]].append(row)
        for q in queries:
            rows = sorted(by_qid[q["qid"]], key=lambda r: r["rank"])
            expected = _oracle_bm25(docs, q["query"])
            got = [(r["docno"], r["score"]) for r in rows]
            assert got == expected, (
                f"corpus {corpus_no} qid {q['qid']} query {q['query']!r}"
            )
            assert [r["rank"] for r in rows] == list(range(len(expected)))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s, budget 10s"
    print(f"criterion 1: 50 corpora x 20 queries matched in {elapsed:.2f}s")


# -- criterion 2: operator algebra properties -----------------------------------


def _docnos_by_qid(frame):
    out: dict[str, list[str]] = {}
    rows = frame.rows
    if any("rank" in r for r in rows):
        rows = sorted(rows, key=lambda r: (r["qid"], r["rank"]))
    for r in rows:
        out.setdefault(r["qid"], []).append(r["docno"])
    return out


def test_criterion_2_operator_algebra_properties():
    # 1000 randomized cases over mock retrievers, zero tolerated failures:
    # `then` associativity, combine_sum commutativity and missing-as-zero,
    # set_union and rank_cutoff idempotence, and cutoff prefix monotonicity.
    rng = Random(202)
    for case in range(1000):
        qids = [f"q{i:03d}" for i in range(rng.randint(1, 4))]
        qf = Frame(SemType.Q, [{"qid": q, "query": f"find {q}"} for q in qids])
        ta = random_result_table(rng, qids)
        tb = random_result_table(rng, qids)
        a = mock_retriever(ta, name=f"a{case}")
        b = mock_retriever(tb, name=f"b{case}")
        prop = case % 5

        if prop == 0:
            # (a >> f) >> g == a >> (f >> g), structurally and on data
            f = reranker(rng.choice([0.5, 2.0]), name=f"f{case}")
            g = reranker(rng.choice([0.25, 4.0]), name=f"g{case}")
            left = then(then(a, f), g)
            right = then(a, then(f, g))
            assert left == right
            assert run(left, qf) == run(right, qf)

        elif prop == 1:
            # weighted sum is commutative and scores absent docs as zero
            wa = rng.choice([0.5, 1.0, 2.0, 4.0])
            wb = rng.choice([0.5, 1.0, 2.0, 4.0])
            fab = run(combine_sum(a, b, wa, wb), qf)
            fba = run(combine_sum(b, a, wb, wa), qf)
            assert fab == fba
            for qid in qids:
                sa = dict(ta[qid])
                sb = dict(tb[qid])
                got = {r["docno"]: r["score"] for r in fab.rows if r["qid"] == qid}
                want = {
                    d: (wa * sa[d] if d in sa else 0.0)
                    + (wb * sb[d] if d in sb else 0.0)
                    for d in set(sa) | set(sb)
                }
                assert got == want

        elif prop == 2:
            # unioning the same operand again adds nothing
            u = set_union(a, b)
            base = run(u, qf)
            again = run(set_union(u, b), qf)
            assert again == base
            self_union = run(set_union(a, a), qf)
            expected = [
                {k: r[k] for k in ("qid", "docno", "query")}
                for r in run(a, qf).rows
            ]
            assert list(self_union.rows) == expected

        elif prop == 3:
            # cutting at k twice equals cutting once; a wider second cut
            # changes nothing either
            k = rng.randint(1, 6)
            p = combine_sum(a, b) if rng.random() < 0.5 else a
            once = run(rank_cutoff(p, k), qf)
            assert run(rank_cutoff(rank_cutoff(p, k), k), qf) == once
            assert run(rank_cutoff(rank_cutoff(p, k), k + rng.randint(1, 5)), qf) == once

        else:
            # per qid, the top-k list is a prefix of the top-k' list, k <= k'
            k = rng.randint(1, 5)
            k2 = k + rng.randint(1, 5)
            p = combine_sum(a, b) if rng.random() < 0.5 else a
            small = _docnos_by_qid(run(rank_cutoff(p, k), qf))
            large = _docnos_by_qid(run(rank_cutoff(p, k2), qf))
            for qid, docs in small.items():
                assert large[qid][: len(docs)] == docs
            for qid in large:
                if qid not in small:
                    assert large[qid] == []
    print("criterion 2: 1000 operator algebra cases, zero failures")


# -- criterion 3: type checker against a reference implementation ---------------


def _ref_signature(node):
    """Independent recursive signature checker. Returns (input, output) or
    raises ValueError; the rules are stated from scratch rather than reusing
    the package's checker: `then` feeds left output into right input and
    nothing composes after a terminal stage; score combination and union
    need two retrieval branches over the same input; cutoff needs a
    retrieval child."""
    if isinstance(node, Then):
        li, lo = _ref_signature(node.left)
        ri, ro = _ref_signature(node.right)
        if lo is TERMINAL or lo is not ri:
            raise ValueError("then mismatch")
        return (li, ro)
    if isinstance(node, (CombineSum, SetUnion)):
        li, lo = _ref_signature(node.left)
        ri, ro = _ref_signature(node.right)
        if lo is not SemType.R or ro is not SemType.R or li is not ri:
            raise ValueError("merge mismatch")
        return (li, SemType.R)
    if isinstance(node, RankCutoff):
        ci, co = _ref_signature(node.child)
        if co is not SemType.R:
            raise ValueError("cutoff mismatch")
        return (ci, co)
    return (node.signature.input, node.signature.output)


def _leaf_pool():
    leaves = [
        FnTransformer(Signature(i, o), f"leaf_{str(i).lower()}_{str(o).lower()}",
                      lambda fr: fr)
        for i, o in sorted(FAMILIES, key=str)
    ]
    return leaves + [identity(t) for t in SemType]


def _random_tree(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    kind = rng.randrange(4)
    if kind == 0:
        return Then(_random_tree(rng, leaves, depth - 1),
                    _random_tree(rng, leaves, depth - 1))
    if kind == 1:
        return CombineSum(_random_tree(rng, leaves, depth - 1),
                          _random_tree(rng, leaves, depth - 1),
                          rng.choice([0.5, 1.0, 2.0]), 1.0)
    if kind == 2:
        return SetUnion(_random_tree(rng, leaves, depth - 1),
                        _random_tree(rng, leaves, depth - 1))
    return RankCutoff(_random_tree(rng, leaves, depth - 1), rng.randint(1, 9))


def _well_typed_chain(rng, leaves):
    by_input: dict = {}
    for leaf in leaves:
        sig = leaf.signature
        if sig.output is not TERMINAL or rng.random() < 0.5:
            by_input.setdefault(sig.input, []).append(leaf)
    current = rng.choice([SemType.Q, SemType.R, SemType.D, SemType.QC])
    parts = []
    for _ in range(rng.randint(1, 4)):
        options = by_input.get(current)
        if not options:
            break
        leaf = rng.choice(options)
        parts.append(leaf)
        current = leaf.signature.output
        if current is TERMINAL:
            break
    return chain(parts) if parts else rng.choice(leaves)


def test_criterion_3_type_checker_agrees_with_reference():
    # Exact composition table for the signature families: f1 >> f2 must
    # type-check iff f1's output is f2's input (and not terminal)...
    leaves = _leaf_pool()
    family_leaves = leaves[: len(FAMILIES)]
    for fa in family_leaves:
        for fb in family_leaves:
            sa, sb = fa.signature, fb.signature
            should = sa.output is not TERMINAL and sa.output is sb.input
            if should:
                sig = type_check(then(fa, fb))
                assert sig == Signature(sa.input, sb.output)
            else:
                try:
                    then(fa, fb)
                except TypeMismatch:
                    pass
                else:
                    raise AssertionError(f"{sa} >> {sb} should not compose")

    # ...and 200 random trees (raw constructors, so ill-typed shapes are
    # representable) on which the package checker and the independent
    # reference checker must agree exactly.
    rng = Random(303)
    agree_ok = agree_fail = 0
    for i in range(200):
        if i % 2 == 0:
            tree = _random_tree(rng, leaves, rng.randint(1, 4))
        else:
            tree = _well_typed_chain(rng, leaves)
        try:
            sig = type_check(tree)
            lib = ("ok", sig.input, sig.output)
        except TypeMismatch:
            lib = ("fail",)
        try:
            ref_in, ref_out = _ref_signature(tree)
            ref = ("ok", ref_in, ref_out)
        except ValueError:
            ref = ("fail",)
        assert lib == ref, f"tree {i}: package {lib} vs reference {ref}"
        if lib == ("fail",):
            agree_fail += 1
        else:
            agree_ok += 1
    # both branches must actually be exercised for the agreement to mean much
    assert agree_ok >= 20 and agree_fail >= 20
    print(f"criterion 3: composition table exact; 200 trees agree "
          f"({agree_ok} well typed, {agree_fail} rejected)")


# -- criterion 4: answer scoring goldens and EM => F1 ----------------------------


def _decorate(rng, text):
    """Apply scoring-neutral noise: case flips, article and punctuation
    insertion, extra whitespace. Normalization must erase all of it."""
    words = text.split()
    out = []
    for w in words:
        if rng.random() < 0.4:
            w = w.upper() if rng.random() < 0.5 else w.capitalize()
        if rng.random() < 0.3:
            w = w + rng.choice([",", "!", ".", ";"])
        out.append(w)
    if rng.random() < 0.3:
        out.insert(0, rng.choice(["the", "a", "an", "The"]))
    if rng.random() < 0.3:
        out.insert(rng.randrange(len(out) + 1), rng.choice(["an", "the"]))
    joiner = "  " if rng.random() < 0.3 else " "
    return joiner.join(out)


def test_criterion_4_em_f1_goldens_and_implication():
    # golden normalizations and scores with zero tolerance
    assert normalize_answer("The  Eiffel Tower!") == "eiffel tower"
    assert exact_match("The Eiffel Tower!", ["eiffel  TOWER"]) == 1.0
    assert exact_match("Eiffel Tower", ["Eiffel Bridge"]) == 0.0
    # precision 1/2, recall 1/1 -> harmonic mean exactly 2/3
    assert f1("eiffel tower", ["tower"]) == 2 / 3
    assert f1("eiffel tower", ["eiffel tower"]) == 1.0
    assert f1("rome", ["paris"]) == 0.0

    # EM == 1 implies F1 == 1 over 1000 random string pairs, zero failures
    rng = Random(404)
    vocab = ["the", "a", "an", "eiffel", "tower", "of", "london",
             "bridge", "42", "cats", "Paris"]
    em_hits = 0
    for _ in range(1000):
        gold = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        if rng.random() < 0.5:
            pred = _decorate(rng, gold)
        else:
            pred = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        em = exact_match(pred, [gold])
        score = f1(pred, [gold])
        if em == 1.0:
            em_hits += 1
            assert score == 1.0, f"EM=1 but F1={score} for {pred!r} vs {gold!r}"
        assert 0.0 <= score <= 1.0
    assert em_hits >= 200  # the implication must be tested, not vacuous
    print(f"criterion 4: goldens exact; EM=>F1 held on {em_hits}/1000 EM hits")


# -- criterion 5: shared prefix evaluation ---------------------------------------


def test_criterion_5_prefix_sharing_is_invisible_and_saves_work():
    # 20 random system sets built around one shared retrieval head: reports
    # with sharing on and off must be identical bit for bit (timing aside).
    # With sharing on, every stage runs once per chunk for each distinct
    # prefix that ends in it: the head sees each topic once, and so does a
    # context builder that several systems have after it, even when a
    # zero-shot system that shares nothing is in the set. With sharing off,
    # every stage runs once per chunk for each system that uses it.
    rng = Random(505)
    for set_no in range(20):
        n_topics = rng.randint(3, 8)
        n_systems = rng.randint(2, 4)
        qids = [f"q{i:02d}" for i in range(n_topics)]
        topics = Frame(SemType.Q, [
            {"qid": q, "query": f"which document for {q}"} for q in qids
        ])
        texts = {f"d{j}": f"text of document {j}" for j in range(10)}
        table = {
            q: [(d, float(10 - i))
                for i, d in enumerate(rng.sample(sorted(texts), rng.randint(1, 5)))]
            for q in qids
        }
        ret, calls = counting_text_retriever(table, texts, name=f"head{set_no}")
        gold = Frame(SemType.GA, [
            {"qid": q, "ganswer": [topics.rows[i]["query"]
                                   if rng.random() < 0.5 else f"gold {q}"]}
            for i, q in enumerate(qids)
        ])

        deep = set_no % 2 == 0
        counts = Counter()
        users = Counter()
        concats = {k: counted(Concatenator(k_docs=k), counts, f"concat{k}")
                   for k in (1, 2, 3)}
        systems = []
        for v in range(n_systems):
            if v == 0:
                backend = StubBackend("echo_query")
            else:
                backend = StubBackend(
                    "scripted",
                    script=((f"document {v}", f"answer {v}"),),
                    default_answer=f"fallback {v}",
                )
            k = 2 if deep else 1 + v % 3
            users[f"concat{k}"] += 1
            users[f"reader{v}"] += 1
            pipe = ret >> concats[k] >> counted(reader(backend), counts, f"reader{v}")
            systems.append((f"s{v}", pipe))
        if set_no % 3 == 2:
            zs = zero_shot(StubBackend("echo_query"))
            systems.append(("zs", counted(zs, counts, "zero_shot")))
            users["zero_shot"] += 1

        baseline = "s0" if set_no % 2 == 1 else None
        correction = "holm" if baseline and set_no % 4 == 1 else None
        bs = rng.choice([None, None, 2])
        n_chunks = 1 if bs is None else math.ceil(n_topics / bs)

        report_on = experiment(systems, topics, gold, baseline=baseline,
                               correction=correction, batch_size=bs,
                               share_prefix=True)
        rows_on, applies_on = calls["rows"], calls["applies"]
        counts_on = dict(counts)
        calls["rows"] = calls["applies"] = 0
        counts.clear()
        report_off = experiment(systems, topics, gold, baseline=baseline,
                                correction=correction, batch_size=bs,
                                share_prefix=False)
        rows_off, applies_off = calls["rows"], calls["applies"]
        counts_off = dict(counts)
        calls["rows"] = calls["applies"] = 0

        assert rows_on == n_topics, f"set {set_no}: prefix saw {rows_on} rows"
        assert applies_on == n_chunks
        assert counts_on == {label: n_chunks for label in users}
        assert rows_off == n_topics * n_systems
        assert applies_off == n_chunks * n_systems
        assert counts_off == {label: n_chunks * n for label, n in users.items()}

        d_on = report_on.to_dict()
        d_off = report_off.to_dict()
        d_on.pop("timing")
        d_off.pop("timing")
        assert json.dumps(d_on, sort_keys=True) == json.dumps(d_off, sort_keys=True)
    print("criterion 5: 20 system sets identical with sharing on/off; "
          "each distinct prefix ran once per chunk")


# -- criterion 6: worked end-to-end example --------------------------------------


def test_criterion_6_worked_example_matches_hand_computation():
    # Synthetic corpus with fully predictable rankings: topic i has 8
    # documents d{i}x{j} whose text is "token{i} mk{i}x{j}" plus j "pad"
    # fillers. Every document matches the query "token{i}" with tf=1 and
    # df=8, so the BM25 contribution is strictly decreasing in document
    # length and document j lands exactly at rank j. The marker token
    # mk{i}x{j} identifies rank j's document inside a prompt.
    started = time.perf_counter()
    topics = Frame(SemType.Q, [
        {"qid": f"t{i:02d}", "query": f"token{i}"} for i in range(25)
    ])
    gold = Frame(SemType.GA, [
        {"qid": f"t{i:02d}", "ganswer": [f"ans{i}"]} for i in range(25)
    ])
    docs = []
    for i in range(25):
        for j in range(8):
            docs.append({
                "docno": f"d{i:02d}x{j}",
                "text": f"token{i} mk{i}x{j}" + " pad" * j,
            })
    assert len(docs) == 200
    idx = index_corpus(docs)

    # The scripted reader knows the answer to topic i only when the prompt
    # contains the marker of the answer-bearing document: rank 0 for even
    # topics, rank 5 for odd ones. A top-3 context therefore answers the 13
    # even topics and misses the 12 odd ones; a top-10 context answers all.
    rules = tuple(
        (f" mk{i}x{0 if i % 2 == 0 else 5}", f"ans{i}") for i in range(25)
    )
    stub = StubBackend("scripted", script=rules, default_answer="i do not know")
    retriever = BM25Retriever(idx, include_fields=("text",))
    top3 = retriever % 3 >> Concatenator() >> reader(stub)
    top10 = retriever % 10 >> Concatenator() >> reader(stub)

    report = experiment([("top3", top3), ("top10", top10)], topics, gold)

    # hand computation: 13 of 25 even topics -> EM = F1 = 0.52 exactly; the
    # miss answer shares no token with any gold, so F1 has no partial credit
    assert report.aggregates["top3"]["EM"] == 13 / 25
    assert report.aggregates["top3"]["F1"] == 13 / 25
    assert report.aggregates["top10"]["EM"] == 1.0
    assert report.aggregates["top10"]["F1"] == 1.0
    for i in range(25):
        expected = 1.0 if i % 2 == 0 else 0.0
        assert report.per_query["top3"][f"t{i:02d}"]["EM"] == expected
    table = report.table()
    assert "0.5200" in table and "1.0000" in table
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"worked example took {elapsed:.1f}s, budget 30s"
    print(f"criterion 6: top3 EM=F1=0.52, top10 EM=F1=1.0 in {elapsed:.2f}s")


# -- criterion 7: iterative retrieve-and-generate loop ---------------------------


def _iterative_fixture(backend, max_iterations=4):
    table = {}
    texts = {f"d{j}": f"background fact {j}" for j in range(6)}
    ret, calls = counting_text_retriever(
        {"q1": [(f"d{j}", float(6 - j)) for j in range(6)]} | table,
        texts, name="loop_ret",
    )
    loop = IterativeRetriever(ret, backend, max_iterations=max_iterations,
                              docs_per_iteration=2)
    frame = Frame(SemType.Q, [{"qid": "q1", "query": "who built it"}])
    return loop, frame, calls


def test_criterion_7_iterative_loop_exit_and_guard():
    # exit on the phrase in the very first step: one retrieval, answer is
    # the text after the phrase with trailing punctuation stripped
    backend = StubBackend("scripted",
                          script=(("Question:", "So the answer is Paris."),))
    loop, frame, calls = _iterative_fixture(backend)
    out = run(loop, frame)
    assert out.rows[0]["qanswer"] == "Paris"
    assert out.rows[0]["iterations"] == 1
    assert calls["applies"] == 1

    # no step ever contains the phrase: the guard stops the loop after
    # max_iterations and the answer is the whole chain
    backend = StubBackend("scripted", script=(), default_answer="still thinking")
    loop, frame, calls = _iterative_fixture(backend, max_iterations=3)
    out = run(loop, frame)
    assert out.rows[0]["iterations"] == 3
    assert calls["applies"] == 3
    assert out.rows[0]["qanswer"].count("still thinking") == 3

    # the phrase arrives in step two (triggered by step one's sentence
    # having been folded into the prompt): exactly two retrievals
    backend = StubBackend(
        "scripted",
        script=(("bridge keyword", "So the answer is Tokyo."),),
        default_answer="searching for the bridge keyword",
    )
    loop, frame, calls = _iterative_fixture(backend)
    out = run(loop, frame)
    assert out.rows[0]["qanswer"] == "Tokyo"
    assert out.rows[0]["iterations"] == 2
    assert calls["applies"] == 2
    print("criterion 7: phrase exit after 1 step, guard at 3, steered exit at 2")


# -- criterion 8: HTTP backend conformance ----------------------------------------


class _FakeLLMHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        srv = self.server
        n = len(srv.requests)
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else None
        srv.requests.append({
            "path": self.path,
            "headers": {k.lower(): v for k, v in self.headers.items()},
            "body": body,
        })
        status, payload = srv.responses[min(n, len(srv.responses) - 1)]
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_criterion_8_http_backend_conformance(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeLLMHandler)
    server.requests = []
    ok = (200, {"choices": [{"message": {"content": "hello back"}}]})
    # three throttled responses, then success: the client must retry with
    # exponential backoff and still return the answer
    server.responses = [(429, {}), (429, {}), (429, {}), ok]
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    try:
        monkeypatch.setenv("RAGKIT_API_KEY", "sk-acceptance")
        delays = []
        backend = HttpBackend(
            "test-model",
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            max_retries=3,
            retry_base_delay=0.25,
            sleeper=delays.append,
        )
        answers = backend.generate(["ping"], system="be brief")
        assert answers == ["hello back"]
        assert len(server.requests) == 4
        assert delays == [0.25, 0.5, 1.0]
        first = server.requests[0]
        assert first["path"] == "/v1/chat/completions"
        assert first["headers"]["authorization"] == "Bearer sk-acceptance"
        assert first["headers"]["content-type"] == "application/json"
        assert first["body"] == {
            "model": "test-model",
            "messages": [
                {"role": "system", "content": "be brief"},
                {"role": "user", "content": "ping"},
            ],
            "temperature": 0.0,  # deterministic by default
        }
        # all four attempts must carry the identical request
        assert all(r["body"] == first["body"] for r in server.requests)
    finally:
        server.shutdown()
        server.server_close()
    print("criterion 8: request shape, bearer auth, temperature 0, "
          "and 3-retry backoff verified")


# -- criterion 9: run-file round trip and frame validation ------------------------


def _random_scored_rows(rng, allow_empty=False):
    rows = []
    n_qids = rng.randint(0 if allow_empty else 1, 4)
    for i in range(n_qids):
        qid = f"q{rng.randint(1, 30)}_{i}"
        docnos = rng.sample([f"d{j:03d}" for j in range(40)], rng.randint(1, 8))
        base = rng.uniform(10, 100)
        for pos, docno in enumerate(docnos):
            # distinct 6-decimal scores survive the run-file format exactly
            rows.append({
                "qid": qid, "docno": docno,
                "score": round(base - pos - rng.random() / 2, 6),
            })
    return rows


def test_criterion_9_run_files_and_frame_validation(tmp_path):
    # 1000 random frames, zero tolerated failures: even iterations check
    # that writing a run file and reading it back reproduces the frame
    # exactly; odd iterations check the validation invariants (and that
    # specific corruptions are rejected).
    rng = Random(909)
    path = tmp_path / "roundtrip.run"
    checked = 0
    for i in range(1000):
        if i % 2 == 0:
            frame = assign_ranks(_random_scored_rows(rng, allow_empty=i % 100 == 0))
            write_run(frame, path, tag=f"sys{i}")
            back = read_run(path)
            assert back == frame
        else:
            rows = _random_scored_rows(rng)
            frame = assign_ranks(rows)
            validate(frame, SemType.R)
            # idempotent and insensitive to input row order
            assert assign_ranks(frame) == frame
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert assign_ranks(shuffled) == frame
            kind = i % 10
            broken = [dict(r) for r in frame.rows]
            if kind in (1, 3):
                victim = rng.randrange(len(broken))
                del broken[victim]["score"]
            elif kind in (5, 7):
                broken.append(dict(broken[rng.randrange(len(broken))]))
            else:
                victim = rng.randrange(len(broken))
                broken[victim]["rank"] = broken[victim]["rank"] + len(broken)
            try:
                validate(Frame(SemType.R, broken), SemType.R)
            except ValidationError:
                pass
            else:
                raise AssertionError(f"corruption {kind} at case {i} accepted")
        checked += 1
    assert checked == 1000
    print("criterion 9: 500 run-file round trips and 500 validation "
          "checks, zero failures")
