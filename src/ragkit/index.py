"""Inverted index with BM25 scoring.

The index is built once from a document stream and is read-only afterwards;
concurrent retrieval is safe. Tokenization is the same at index and query
time: lowercase, split on any non-alphanumeric character, no stemming,
optional stopword removal (off by default).

BM25 uses the shifted idf ln((N - df + 0.5)/(df + 0.5) + 1), which is
strictly positive even for terms in more than half the collection, so scores
are always non-negative.

Postings are numpy arrays in compressed sparse row (CSR) form, and retrieval
scores eagerly over them, as in BM25S (Lu 2024): one vectorised update of a
dense per-document accumulator per query term, then a partial sort for the
top k.

An index persists to a directory (format_version 2): the CSR arrays and the
document lengths as .npy files, the terms, docnos and stored fields as JSON,
and manifest.json, written last, carrying the statistics, the tokenizer
configuration and the content fingerprint. Saving writes a sibling temporary
directory, then moves its files into the target with the manifest last, so an
interrupted save leaves no loadable index behind; loading checks that the
arrays agree with each other.
Format 1 (JSON postings) is refused with a pointer to re-run `ragkit index`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import tempfile
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateDocno,
    MissingField,
    ParseError,
    UnknownDocno,
    check_positive,
)
from .frame import Frame, SemType
from .transformer import Signature, TERMINAL, Transformer

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

FORMAT_VERSION = 2
MANIFEST = "manifest.json"
_JSON_PARTS = ("terms", "docnos", "stored")
# persisted arrays and their on-disk dtypes
_ARRAYS = {"indptr": "<i8", "doc_ids": "<i4", "tfs": "<i4", "doclens": "<i4"}
# format 1 files that format 2 does not write; save() deletes them
_V1_FILES = ("postings.json", "doclens.json")
# the only entries save() accepts in a directory it replaces
_INDEX_FILES = frozenset((MANIFEST, *_V1_FILES, *(f"{n}.json" for n in _JSON_PARTS),
                          *(f"{n}.npy" for n in _ARRAYS)))


class Tokenizer:
    __slots__ = ("stopwords",)

    def __init__(self, stopwords: Iterable[str] = ()) -> None:
        self.stopwords = frozenset(w.lower() for w in stopwords)

    def tokenize(self, text: str) -> list[str]:
        tokens = _TOKEN_RE.findall(text.lower())
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        return tokens

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tokenizer):
            return NotImplemented
        return self.stopwords == other.stopwords

    def __hash__(self) -> int:
        return hash(self.stopwords)


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    """Term postings over the `text` field plus verbatim stored fields.

    Postings are CSR arrays: term t (its position in the term list) has the
    postings doc_ids[indptr[t]:indptr[t + 1]] (int32, ascending) with the
    matching tfs, and postings() returns those slices as array views. Doc
    ids are dense 0..N-1 in ingestion order.
    """

    def __init__(self, tokenizer: Tokenizer | None = None,
                 stored_fields: Sequence[str] = ("text",)) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.stored_fields = tuple(stored_fields)
        self._set([], [], [], _csr(array("i"), array("i"), 0))

    def _set(self, terms: list[str], docnos: list[str], stored: list[dict],
             arrays: dict[str, np.ndarray], fingerprint: str | None = None) -> None:
        self._terms = terms
        self._term_ids = {t: i for i, t in enumerate(terms)}
        self._docnos = docnos
        self._ids = {d: i for i, d in enumerate(docnos)}
        self._stored = stored
        self._indptr = arrays["indptr"]
        self._doc_ids = arrays["doc_ids"]
        self._tfs = arrays["tfs"]
        self._doclens = arrays["doclens"]
        for a in arrays.values():
            a.flags.writeable = False  # postings() hands out views
        n = len(docnos)
        self._avgdl = int(self._doclens.sum(dtype=np.int64)) / n if n else 0.0
        # position of each doc in bytewise docno order, the retriever's tie-break
        self._docno_rank = np.empty(n, np.int64)
        self._docno_rank[sorted(range(n), key=docnos.__getitem__)] = np.arange(n)
        self._fingerprint = fingerprint

    # -- statistics -------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._docnos)

    @property
    def avgdl(self) -> float:
        return self._avgdl

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def df(self, term: str) -> int:
        t = self._term_ids.get(term)
        return 0 if t is None else int(self._indptr[t + 1] - self._indptr[t])

    def doclen(self, doc_id: int) -> int:
        return int(self._doclens[doc_id])

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) array views for a term; empty arrays when unseen."""
        t = self._term_ids.get(term)
        if t is None:
            return self._doc_ids[:0], self._tfs[:0]
        start, end = self._indptr[t], self._indptr[t + 1]
        return self._doc_ids[start:end], self._tfs[start:end]

    # -- document identity --------------------------------------------------

    def docno(self, doc_id: int) -> str:
        return self._docnos[doc_id]

    def doc_id(self, docno: str) -> int:
        try:
            return self._ids[docno]
        except KeyError:
            raise UnknownDocno(docno) from None

    def has_docno(self, docno: str) -> bool:
        return docno in self._ids

    def stored(self, doc_id: int) -> dict[str, str]:
        return self._stored[doc_id]

    # -- identity for structural pipeline equality --------------------------

    def _config(self) -> dict:
        return {
            "stopwords": sorted(self.tokenizer.stopwords),
            "stored_fields": list(self.stored_fields),
        }

    def _parts(self) -> dict[str, bytes | np.ndarray]:
        """The persisted content: JSON text per metadata part, then the
        arrays. Saving writes these and fingerprint() hashes them."""
        parts: dict[str, bytes | np.ndarray] = {
            name: json.dumps(getattr(self, f"_{name}")).encode() for name in _JSON_PARTS
        }
        parts.update((name, getattr(self, f"_{name}")) for name in _ARRAYS)
        return parts

    def _digest(self, parts: dict[str, bytes | np.ndarray]) -> str:
        h = hashlib.sha256(json.dumps(self._config(), sort_keys=True).encode())
        for name, data in parts.items():
            view = memoryview(data)
            h.update(f"\n{name} {_ARRAYS.get(name, 'json')} {view.nbytes}\n".encode())
            h.update(view)
        return h.hexdigest()

    def _key(self) -> str:
        return self.fingerprint()

    def fingerprint(self) -> str:
        """Content hash; two indexes over identical corpora and configs get
        the same fingerprint, so retrievers built on them compare equal. A
        loaded index reads it from its manifest instead of re-hashing."""
        if self._fingerprint is None:
            self._fingerprint = self._digest(self._parts())
        return self._fingerprint

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write the index to `directory`, replacing an index saved there.

        Everything is written to a sibling temporary directory first. The
        files then move into `directory`, whose old manifest is removed
        before the first move and whose new manifest moves last, so a save
        that fails midway never leaves a loadable mix of two indexes, and
        one that fails while writing leaves `directory` as it was. A
        directory holding anything but index files is refused."""
        target = Path(directory).resolve()
        if target.exists():
            if not target.is_dir():
                raise FileExistsError(f"{target} exists and is not a directory")
            foreign = sorted(p.name for p in target.iterdir()
                             if p.name not in _INDEX_FILES or not p.is_file())
            if foreign:
                raise FileExistsError(
                    f"{target} holds files that are not part of an index: "
                    + ", ".join(foreign))
        target.parent.mkdir(parents=True, exist_ok=True)
        parts = self._parts()
        if self._fingerprint is None:
            self._fingerprint = self._digest(parts)
        manifest = {
            "format_version": FORMAT_VERSION,
            "n_docs": self.n_docs,
            "n_terms": self.n_terms,
            "avgdl": self.avgdl,
            **self._config(),
            "fingerprint": self._fingerprint,
        }
        tmp = Path(tempfile.mkdtemp(prefix=f".{target.name}.", suffix=".tmp",
                                    dir=target.parent))
        try:
            for name, data in parts.items():
                if isinstance(data, bytes):
                    (tmp / f"{name}.json").write_bytes(data)
                else:
                    np.save(tmp / f"{name}.npy", data, allow_pickle=False)
            (tmp / MANIFEST).write_text(json.dumps(manifest, indent=2))
            target.mkdir(exist_ok=True)
            for name in (MANIFEST, *_V1_FILES):
                (target / name).unlink(missing_ok=True)
            for path in sorted(tmp.iterdir(), key=lambda p: p.name == MANIFEST):
                os.replace(path, target / path.name)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        """Read an index saved by save(); ParseError if it is not one, is
        format 1, or its files disagree with each other."""
        d = Path(directory)
        manifest_path = d / MANIFEST
        if not manifest_path.is_file():
            raise ParseError(f"not an index directory (no {MANIFEST}): {d}")
        try:
            manifest = json.loads(manifest_path.read_text())
            version = manifest.get("format_version")
        except (ValueError, AttributeError):
            raise ParseError(f"unreadable index manifest: {manifest_path}") from None
        if version == 1:
            raise ParseError(
                f"index format_version 1 (JSON postings) in {manifest_path} is no "
                f"longer supported; re-run `ragkit index` to rebuild it as "
                f"format_version {FORMAT_VERSION}"
            )
        if version != FORMAT_VERSION:
            raise ParseError(
                f"unsupported index format_version {version!r} in {manifest_path}"
            )
        try:
            meta = {name: json.loads((d / f"{name}.json").read_text())
                    for name in _JSON_PARTS}
            arrays = {name: np.load(d / f"{name}.npy", allow_pickle=False)
                      for name in _ARRAYS}
        except (OSError, ValueError, EOFError) as exc:
            raise ParseError(f"unreadable index file in {d}: {exc}") from None

        def require(ok, what: str) -> None:
            if not ok:
                raise ParseError(f"corrupt index in {d}: {what}")

        require(all(isinstance(v, list) for v in meta.values()), "JSON part is not a list")
        n_terms, n_docs = len(meta["terms"]), len(meta["docnos"])
        indptr, doc_ids, tfs, doclens = arrays.values()
        require(all(a.ndim == 1 and a.dtype == _ARRAYS[name]
                    for name, a in arrays.items()), "array of the wrong shape or dtype")
        require(manifest.get("n_terms") == n_terms and manifest.get("n_docs") == n_docs,
                "manifest counts disagree with terms.json or docnos.json")
        require(len(indptr) == n_terms + 1, "len(indptr) != n_terms + 1")
        require(indptr[0] == 0 and indptr[-1] == len(doc_ids) == len(tfs)
                and np.all(indptr[1:] >= indptr[:-1]),
                "indptr does not span doc_ids and tfs")
        require(len(doclens) == n_docs == len(meta["stored"]),
                "doclens or stored fields disagree with n_docs")
        require(len(doc_ids) == 0 or 0 <= doc_ids.min() <= doc_ids.max() < n_docs,
                "doc id out of range")
        require(len(tfs) == 0 or tfs.min() >= 1, "tf below 1")
        # doc ids ascend strictly within each posting list; a step may only
        # go down or repeat where the next list begins
        rising = np.diff(doc_ids) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < len(doc_ids))] - 1] = True
        require(rising.all(), "doc ids not strictly ascending within a posting list")
        require(isinstance(manifest.get("fingerprint"), str), "no fingerprint")
        idx = cls(
            tokenizer=Tokenizer(manifest.get("stopwords", ())),
            stored_fields=manifest.get("stored_fields", ["text"]),
        )
        idx._set(meta["terms"], meta["docnos"], meta["stored"], arrays,
                 manifest["fingerprint"])
        return idx


def index_corpus(
    docs: Iterable[dict],
    fields_to_store: Sequence[str] = ("text",),
    tokenizer: Tokenizer | None = None,
) -> InvertedIndex:
    """Build an index from a document row stream in one pass.

    Each row needs docno and text; requested fields are stored verbatim for
    later re-attachment (absent optional fields store as empty strings).
    An empty stream yields an empty, still-valid index.
    """
    idx = InvertedIndex(tokenizer=tokenizer, stored_fields=fields_to_store)
    tokenize, fields = idx.tokenizer.tokenize, idx.stored_fields
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    token_ids, doclens = array("i"), array("i")
    docnos: list[str] = []
    seen: set[str] = set()
    stored: list[dict[str, str]] = []
    for row in docs:
        if "docno" not in row:
            raise MissingField("docno", "corpus document")
        if "text" not in row:
            raise MissingField("text", f"corpus document {row['docno']!r}")
        docno = str(row["docno"])
        if docno in seen:
            raise DuplicateDocno(docno)
        seen.add(docno)
        docnos.append(docno)
        tokens = tokenize(str(row["text"]))
        doclens.append(len(tokens))
        token_ids.extend(map(term_ids.__getitem__, tokens))
        stored.append({f: str(row.get(f, "")) for f in fields})
    idx._set(list(term_ids), docnos, stored, _csr(token_ids, doclens, len(term_ids)))
    return idx


def _csr(token_ids: array, doclens: array, n_terms: int) -> dict[str, np.ndarray]:
    """CSR postings from the term ids of all documents' tokens, concatenated
    in document order."""
    lens = np.asarray(doclens, dtype=_ARRAYS["doclens"])
    n_docs = len(lens)
    # one key per token, term-major: sorting the keys groups the postings by
    # term with doc ids ascending, and the run lengths are the tfs
    keys = np.asarray(token_ids, dtype=np.int64) * n_docs
    keys += np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    keys, tfs = np.unique(keys, return_counts=True)
    terms, doc_ids = np.divmod(keys, max(n_docs, 1))
    indptr = np.zeros(n_terms + 1, _ARRAYS["indptr"])
    np.cumsum(np.bincount(terms, minlength=n_terms), out=indptr[1:])
    return {
        "indptr": indptr,
        "doc_ids": doc_ids.astype(_ARRAYS["doc_ids"]),
        "tfs": tfs.astype(_ARRAYS["tfs"]),
        "doclens": lens,
    }


def bm25_score(
    index: InvertedIndex,
    query_terms: Sequence[str],
    doc_id: int,
    params: BM25Params = BM25Params(),
) -> float:
    """Sum of per-term BM25 contributions for one document.

    Repeated query terms contribute once per occurrence. Terms absent from
    the lexicon or from the document contribute nothing. The summation order
    is the query term order, which the retriever reproduces exactly, so both
    paths produce bit-identical scores.
    """
    n = index.n_docs
    avgdl = index.avgdl
    dl = index.doclen(doc_id)
    k1, b = params.k1, params.b
    score = 0.0
    for term in query_terms:
        doc_ids, tfs = index.postings(term)
        if len(doc_ids) == 0:
            continue
        pos = int(np.searchsorted(doc_ids, doc_id))
        if pos == len(doc_ids) or doc_ids[pos] != doc_id:
            continue
        tf = int(tfs[pos])
        df = len(doc_ids)
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
    return score


@dataclass(eq=False, repr=False)
class BM25Retriever(Transformer):
    """Q -> R transformer scoring every document that contains at least one
    query term, keeping the top num_results by (score desc, docno asc)."""

    index: InvertedIndex
    bm25: BM25Params | None = None
    num_results: int = 1000
    include_fields: Sequence[str] = ()

    signature = Signature(SemType.Q, SemType.R)
    name = "bm25"

    def __post_init__(self) -> None:
        check_positive(self.num_results)
        self.bm25 = self.bm25 or BM25Params()
        self.include_fields = tuple(self.include_fields)
        # per-doc length norm: the same IEEE operations as bm25_score's
        # denominator; only read for docs with postings, so avgdl > 0 there
        k1, b, avgdl = self.bm25.k1, self.bm25.b, self.index.avgdl
        dl = self.index._doclens / avgdl if avgdl else np.zeros(self.index.n_docs)
        self._norm = k1 * (1.0 - b + b * dl)

    def _top(self, acc: np.ndarray) -> tuple[list[int], list[float]]:
        """Doc ids and scores of the top num_results by (score desc, docno
        asc). Every contribution is positive, so the nonzero entries of `acc`
        are exactly the docs that contain a query term."""
        k = self.num_results
        cand = np.flatnonzero(acc)
        scores = acc[cand]
        if len(cand) > k:
            kth = -np.partition(-scores, k - 1)[k - 1]
            keep = scores >= kth  # every doc tied with the k-th score survives
            cand, scores = cand[keep], scores[keep]
        order = np.lexsort((self.index._docno_rank[cand], -scores))[:k]
        return cand[order].tolist(), scores[order].tolist()

    def apply(self, frame: Frame) -> Frame:
        idx = self.index
        n = idx.n_docs
        k1 = self.bm25.k1
        norm = self._norm
        out_rows: list[dict] = []
        for row in frame.rows:
            acc = np.zeros(n)
            # term-at-a-time accumulation; per document the additions happen
            # in query term order, matching bm25_score's summation exactly,
            # and doc ids within one posting list are unique, so the
            # fancy-indexed add is exact
            for term in idx.tokenizer.tokenize(row["query"]):
                doc_ids, tfs = idx.postings(term)
                if len(doc_ids) == 0:
                    continue
                df = len(doc_ids)
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                acc[doc_ids] += idf * (tfs * (k1 + 1.0)) / (tfs + norm[doc_ids])
            doc_ids, scores = self._top(acc)
            for rank, (doc_id, score) in enumerate(zip(doc_ids, scores)):
                out = {
                    "qid": row["qid"],
                    "docno": idx.docno(doc_id),
                    "score": score,
                    "rank": rank,
                    "query": row["query"],
                }
                if self.include_fields:
                    stored = idx.stored(doc_id)
                    for f in self.include_fields:
                        out[f] = stored.get(f, "")
                out_rows.append(out)
        return Frame(SemType.R, out_rows)


bm25_retriever = BM25Retriever


@dataclass(eq=False, repr=False)
class TextAttacher(Transformer):
    """R -> R transformer adding stored fields to result rows by docno."""

    index: InvertedIndex
    fields: Sequence[str]

    signature = Signature(SemType.R, SemType.R)
    name = "attach_text"

    def __post_init__(self) -> None:
        self.fields = tuple(self.fields)

    def apply(self, frame: Frame) -> Frame:
        rows = []
        for row in frame.rows:
            stored = self.index.stored(self.index.doc_id(row["docno"]))
            merged = dict(row)
            for f in self.fields:
                merged[f] = stored.get(f, "")
            rows.append(merged)
        return Frame(SemType.R, rows)


attach_text = TextAttacher


@dataclass(eq=False, repr=False)
class Indexer(Transformer):
    """D -> Terminal transformer; consumes a document frame and leaves the
    built index on `self.index`. The one transformer with write-on-apply
    state, so build each instance in a single task."""

    fields_to_store: Sequence[str] = ("text",)
    tokenizer: Tokenizer | None = None

    signature = Signature(SemType.D, TERMINAL)
    name = "indexer"

    def __post_init__(self) -> None:
        self.fields_to_store = tuple(self.fields_to_store)
        self.tokenizer = self.tokenizer or Tokenizer()
        self.index: InvertedIndex | None = None

    def apply(self, frame: Frame) -> Frame:
        self.index = index_corpus(
            frame.rows, self.fields_to_store, self.tokenizer
        )
        return Frame(None, ())


indexer = Indexer
