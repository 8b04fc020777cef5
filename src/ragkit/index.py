"""Inverted index with BM25 scoring.

The index is built once from a document stream and is read-only afterwards;
concurrent retrieval is safe. Tokenization is the same at index and query
time: lowercase, then split on every character that is not alphanumeric
(`str.isalnum()`: Unicode letters and digits), `_` included; no stemming,
optional stopword removal (off by default). The regex `[^\\W_]+` defines the
tokens; ASCII text is split by `str.translate` and `str.split` instead, which
give exactly the regex's tokens, faster.

BM25 uses the shifted idf ln((N - df + 0.5)/(df + 0.5) + 1), which is
strictly positive even for terms in more than half the collection, so scores
are always non-negative.

Postings are numpy arrays in compressed sparse row (CSR) form, and retrieval
scores eagerly over them, as in BM25S (Lu 2024): a retriever computes each
posting's BM25 contribution once, when it is built; a query sums its terms'
slices of those, in query term order, into a dense per-document accumulator
by one weighted bincount, partitions it for the top k, and takes the docnos
from one read-only object array. The build inverts by sorting: one
key per token, term id * n_docs + doc id, int32 unless n_terms * n_docs
reaches 2**31 (then int64), computed and sorted in place in the token-id
buffer; each run of equal keys is one posting and its length the tf.

An index persists to a directory (format_version 3): the CSR arrays and the
document lengths as .npy files, the terms and docnos as JSON, each stored
field as one UTF-8 blob of its values plus their int64 offsets, and
manifest.json, written last, carrying the statistics, the tokenizer
configuration and the content fingerprint: the sha256 of that configuration
and of every file's content. Saving writes a sibling temporary directory,
then moves its files into the target with the manifest last, so an
interrupted save leaves no loadable index behind. Loading reads each file
once, checks that the files agree with each other, down to each doc's length
being the sum of its tfs and each stored value being UTF-8, and then that
they hash to the manifest's fingerprint, so an index damaged after it was
saved is refused instead of comparing equal to the original.
Formats 1 (JSON postings) and 2 (JSON stored fields) are refused with a
pointer to re-run `ragkit index`.
"""

from __future__ import annotations

import codecs
import copy
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
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateDocno,
    MissingField,
    ParseError,
    UnknownDocno,
    check_finite,
    check_positive,
    str_tuple,
)
from .frame import Frame, SemType, _Segment, terminal_frame
from .transformer import Signature, TERMINAL, Transformer

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# every ASCII character that is neither alphanumeric nor whitespace becomes a
# space, so that str.split() on ASCII text yields exactly _TOKEN_RE's tokens
_ASCII_SEPARATORS = str.maketrans(
    {c: " " for c in map(chr, range(128)) if not (c.isalnum() or c.isspace())})

FORMAT_VERSION = 3
MANIFEST = "manifest.json"
_JSON_PARTS = ("terms", "docnos")
# persisted arrays and their on-disk dtypes
_ARRAYS = {"indptr": "<i8", "doc_ids": "<i4", "tfs": "<i4", "doclens": "<i4"}
# dtype of a stored field's offsets, stored_<i>.npy
_OFFSETS = "<i8"
# files of formats 1 and 2 that format 3 does not write; save() deletes them
_OLD_FILES = ("postings.json", "doclens.json", "stored.json")
# the only entries save() accepts in a directory it replaces: these, and a
# stored field's files, named by the field's position, never by its name
_INDEX_FILES = frozenset((MANIFEST, *_OLD_FILES, *(f"{n}.json" for n in _JSON_PARTS),
                          *(f"{n}.npy" for n in _ARRAYS)))
_STORED_FILE = re.compile(r"stored_[0-9]+\.(bin|npy)")
# what np.save writes first (format 1.0): magic, version, header length, then
# the header, a dict literal padded with spaces and ending in a newline
_NPY_HEADER = re.compile(rb"\x93NUMPY\x01\x00..\{'descr': '([^']*)', 'fortran_order': False, "
                         rb"'shape': \(([0-9, ]*)\), \} *\n", re.DOTALL)


def _is_index_file(name: str) -> bool:
    return name in _INDEX_FILES or _STORED_FILE.fullmatch(name) is not None


def _file_names(n_stored: int) -> list[str]:
    """The files of an index with `n_stored` stored fields, manifest aside,
    in the order its fingerprint hashes them."""
    return [*(f"{n}.json" for n in _JSON_PARTS),
            *(f"stored_{i}.{ext}" for i in range(n_stored) for ext in ("bin", "npy")),
            *(f"{n}.npy" for n in _ARRAYS)]


def _read_npy(data: bytes) -> np.ndarray:
    """The array in .npy bytes laid out as np.save writes a C-order array,
    as a read-only view of those bytes; ValueError if they hold none. The
    header is matched here, not parsed by numpy, which would retry (and
    warn about) one it cannot parse as a header written by Python 2."""
    m = _NPY_HEADER.match(data)
    if m is None:
        raise ValueError("not an .npy file as np.save writes one")
    try:
        dtype = np.dtype(m[1].decode())
    except TypeError:
        raise ValueError(f"unknown .npy dtype {m[1]!r}") from None
    shape = tuple(int(n) for n in m[2].split(b",") if n.strip())
    # reshape refuses data that holds more or fewer values than the shape
    return np.frombuffer(data, dtype, offset=m.end()).reshape(shape)


def _is_utf8(blob: bytes, offsets: np.ndarray) -> bool:
    """Whether `blob` is UTF-8 and each of `offsets` (all within the blob)
    starts a character or ends the blob, so every value decodes on its own.
    Decodes in 1 MiB steps, so no copy of the whole blob is made."""
    starts = offsets[offsets < len(blob)]
    if np.any((np.frombuffer(blob, np.uint8)[starts] & 0xC0) == 0x80):
        return False  # a continuation byte
    decode = codecs.getincrementaldecoder("utf-8")().decode
    view, step = memoryview(blob), 1 << 20
    try:
        for i in range(0, len(view), step):
            decode(view[i:i + step])
        decode(b"", final=True)
    except UnicodeDecodeError:
        return False
    return True


@dataclass(frozen=True)
class Tokenizer:
    """Lowercases, then keeps the maximal runs of alphanumeric characters
    (`str.isalnum()`: Unicode letters and digits) as tokens; `_` and every
    other character separate them. `stopwords` are dropped, compared
    lowercased.

    The regex `[^\\W_]+` over the lowered text defines the tokens and
    tokenizes any text that is not all ASCII. ASCII text takes a faster
    path, `str.translate` then `str.split`, with exactly the same tokens:
    `[^\\W_]` matches a character exactly when `str.isalnum()` is true, and
    no character that `str.split()` treats as whitespace is alphanumeric.
    """

    stopwords: Iterable[str] = ()

    def __post_init__(self) -> None:
        words = str_tuple(self.stopwords, "stopwords")
        object.__setattr__(self, "stopwords", frozenset(w.lower() for w in words))

    def tokenize(self, text: str) -> list[str]:
        # the table covers ASCII only, so test the text it applies to: the
        # lowered text (U+212A KELVIN SIGN lowers to ASCII "k")
        text = text.lower()
        if text.isascii():
            tokens = text.translate(_ASCII_SEPARATORS).split()
        else:
            tokens = _TOKEN_RE.findall(text)
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        return tokens


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        check_finite(self.k1, "k1")
        check_finite(self.b, "b")
        if self.k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    """Term postings over the `text` field plus verbatim stored fields.

    Postings are CSR arrays: term t (its position in the term list) has the
    postings doc_ids[indptr[t]:indptr[t + 1]] (int32, ascending) with the
    matching tfs, and postings() returns those slices as array views. Doc
    ids are dense 0..N-1 in ingestion order. Each stored field is one blob
    of its values' UTF-8 bytes, concatenated in doc id order, with n_docs + 1
    offsets: doc i's value is blob[offsets[i]:offsets[i + 1]].
    """

    def __init__(self, tokenizer: Tokenizer | None = None,
                 stored_fields: Sequence[str] = ("text",)) -> None:
        fields = str_tuple(stored_fields, "stored_fields")
        self._set(tokenizer or Tokenizer(), fields, [], [],
                  [(b"", array("q", [0])) for _ in fields],
                  _csr(array("i"), array("i"), 0))

    def _set(self, tokenizer: Tokenizer, stored_fields: Sequence[str], terms: list[str],
             docnos: list[str], stored: list[tuple[bytes | bytearray, array]],
             arrays: dict[str, np.ndarray]) -> InvertedIndex:
        """Set every attribute of the index; returns it. `stored` holds each
        stored field's blob and offsets (int64). load() and index_corpus()
        call this once on an instance that skipped __init__, so they never
        build the empty index first."""
        self.tokenizer = tokenizer
        self.stored_fields = str_tuple(stored_fields, "stored_fields")
        self._terms = terms
        self._term_ids = {t: i for i, t in enumerate(terms)}
        self._docnos = np.array(docnos, object)  # a ranking's docnos are one take
        self._docnos.flags.writeable = False
        self._ids = {d: i for i, d in enumerate(docnos)}
        # (field, blob, offsets); stored() reads offsets as Python ints
        self._stored = [(f, blob, offsets)
                        for f, (blob, offsets) in zip(self.stored_fields, stored)]
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
        self._fingerprint: str | None = None
        return self

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
        span = self._span(term)
        return self._doc_ids[span], self._tfs[span]

    def _span(self, term: str) -> slice:
        """The positions of a term's postings in the CSR arrays; empty when
        the term is unseen."""
        t = self._term_ids.get(term)
        return slice(0, 0) if t is None else slice(self._indptr[t], self._indptr[t + 1])

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
        """The stored fields of one doc; a fresh dict per call."""
        if doc_id < 0:  # offsets[-1] is the blob's end, not a doc's start
            raise IndexError(f"doc id {doc_id} is negative")
        out = {}
        for field, blob, offsets in self._stored:
            out[field] = blob[offsets[doc_id]:offsets[doc_id + 1]].decode()
        return out

    def _column(self, field: str, doc_ids: list[int]) -> list[str]:
        """Stored `field` of each doc in `doc_ids`; "" throughout if the
        field is not stored."""
        for f, blob, offsets in self._stored:
            if f == field:
                return [blob[offsets[i]:offsets[i + 1]].decode() for i in doc_ids]
        return [""] * len(doc_ids)

    # -- identity for structural pipeline equality --------------------------

    def _config(self) -> dict:
        return {
            "stopwords": sorted(self.tokenizer.stopwords),
            "stored_fields": list(self.stored_fields),
        }

    def _parts(self) -> dict[str, bytes | bytearray | np.ndarray]:
        """The persisted content by file name, in _file_names' order: JSON
        text, each stored field's blob and offsets, then the arrays. Saving
        writes these and fingerprint() hashes them; nothing is copied but
        the JSON text."""
        parts: dict[str, bytes | bytearray | np.ndarray] = {
            f"{name}.json": json.dumps(list(getattr(self, f"_{name}"))).encode()
            for name in _JSON_PARTS
        }
        for i, (_, blob, offsets) in enumerate(self._stored):
            parts[f"stored_{i}.bin"] = blob
            parts[f"stored_{i}.npy"] = np.frombuffer(offsets, np.int64).astype(
                _OFFSETS, copy=False)
        parts.update((f"{name}.npy", getattr(self, f"_{name}")) for name in _ARRAYS)
        return parts

    def _digest(self, parts: dict[str, bytes | bytearray | np.ndarray]) -> str:
        """sha256 of the configuration, then of each file's name, size and
        content; for a .npy file its data, not its header."""
        h = hashlib.sha256(json.dumps(self._config(), sort_keys=True).encode())
        for name, data in parts.items():
            view = memoryview(data)
            h.update(f"\n{name} {view.nbytes}\n".encode())
            h.update(view)
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def fingerprint(self) -> str:
        """Content hash; two indexes over identical corpora and configs get
        the same fingerprint, so retrievers built on them compare equal. A
        loaded index has it from hashing the bytes it read."""
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
                             if not (_is_index_file(p.name) and p.is_file()))
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
                if name.endswith(".npy"):
                    np.save(tmp / name, data, allow_pickle=False)
                else:
                    (tmp / name).write_bytes(data)
            (tmp / MANIFEST).write_text(json.dumps(manifest, indent=2))
            target.mkdir(exist_ok=True)
            (target / MANIFEST).unlink(missing_ok=True)
            # files of an earlier format, or of stored fields this index lacks
            for path in target.iterdir():
                if path.name not in parts and _is_index_file(path.name):
                    path.unlink()
            for path in sorted(tmp.iterdir(), key=lambda p: p.name == MANIFEST):
                os.replace(path, target / path.name)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        """Read an index saved by save(); ParseError if it is not one, is
        format 1 or 2, or its files disagree with each other, with themselves
        or with the manifest's fingerprint.

        Each file is read once. The arrays are views of the bytes read, and
        the fingerprint is the hash of those bytes, checked after every
        structural check has passed."""
        d = Path(directory)
        manifest_path = d / MANIFEST
        if not manifest_path.is_file():
            raise ParseError(f"not an index directory (no {MANIFEST}): {d}")
        try:
            manifest = json.loads(manifest_path.read_text())
            version = manifest.get("format_version")
        except (ValueError, AttributeError):
            raise ParseError(f"unreadable index manifest: {manifest_path}") from None
        if version in (1, 2):
            layout = "JSON postings" if version == 1 else "JSON stored fields"
            raise ParseError(
                f"index format_version {version} ({layout}) in {manifest_path} is no "
                f"longer supported; re-run `ragkit index` to rebuild it as "
                f"format_version {FORMAT_VERSION}"
            )
        if version != FORMAT_VERSION:
            raise ParseError(
                f"unsupported index format_version {version!r} in {manifest_path}"
            )

        def require(ok, what: str) -> None:
            if not ok:
                raise ParseError(f"corrupt index in {d}: {what}")

        stopwords = manifest.get("stopwords", [])
        stored_fields = manifest.get("stored_fields", ["text"])
        require(all(type(v) is list and set(map(type, v)) <= {str}
                    for v in (stopwords, stored_fields)),
                "stopwords or stored_fields is not a list of str")
        try:
            parts = {name: (d / name).read_bytes() for name in _file_names(len(stored_fields))}
            for name, data in parts.items():
                if name.endswith(".npy"):
                    parts[name] = _read_npy(data)
            terms, docnos = (json.loads(parts[f"{name}.json"]) for name in _JSON_PARTS)
        except (OSError, ValueError) as exc:
            raise ParseError(f"unreadable index file in {d}: {exc}") from None

        require(isinstance(terms, list) and isinstance(docnos, list), "JSON part is not a list")
        require(set(map(type, chain(terms, docnos))) <= {str}, "term or docno is not a str")
        n_terms, n_docs = len(terms), len(docnos)
        arrays = {name: parts[f"{name}.npy"] for name in _ARRAYS}
        stored = [(parts[f"stored_{i}.bin"], parts[f"stored_{i}.npy"])
                  for i in range(len(stored_fields))]
        indptr, doc_ids, tfs, doclens = arrays.values()
        require(all(a.ndim == 1 and a.dtype == _ARRAYS[name] for name, a in arrays.items())
                and all(o.ndim == 1 and o.dtype == _OFFSETS for _, o in stored),
                "array of the wrong shape or dtype")
        require(manifest.get("n_terms") == n_terms and manifest.get("n_docs") == n_docs,
                "manifest counts disagree with terms.json or docnos.json")
        require(len(indptr) == n_terms + 1, "len(indptr) != n_terms + 1")
        require(indptr[0] == 0 and indptr[-1] == len(doc_ids) == len(tfs)
                and np.all(indptr[1:] >= indptr[:-1]),
                "indptr does not span doc_ids and tfs")
        require(len(doclens) == n_docs, "doclens disagree with n_docs")
        require(len(doc_ids) == 0 or 0 <= doc_ids.min() <= doc_ids.max() < n_docs,
                "doc id out of range")
        require(len(tfs) == 0 or tfs.min() >= 1, "tf below 1")
        # a doc's length is the number of its tokens, so the sum of its tfs
        require(np.array_equal(np.bincount(doc_ids, weights=tfs, minlength=n_docs), doclens),
                "doclens disagree with the sum of each doc's tfs")
        # doc ids ascend strictly within each posting list; a step may only
        # go down or repeat where the next list begins
        rising = np.diff(doc_ids) > 0
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < len(doc_ids))] - 1] = True
        require(rising.all(), "doc ids not strictly ascending within a posting list")
        columns = []
        for blob, offsets in stored:
            require(len(offsets) == n_docs + 1 and offsets[0] == 0
                    and offsets[-1] == len(blob) and np.all(offsets[1:] >= offsets[:-1]),
                    "stored field offsets do not span their blob")
            require(_is_utf8(blob, offsets), "stored field is not UTF-8 cut at characters")
            columns.append((blob, array("q", offsets.astype("=i8").tobytes())))
        idx = cls.__new__(cls)._set(Tokenizer(stopwords), stored_fields,
                                    terms, docnos, columns, arrays)
        require(len(idx._term_ids) == n_terms and len(idx._ids) == n_docs,
                "repeated term or docno")
        idx._fingerprint = idx._digest(parts)
        require(idx._fingerprint == manifest.get("fingerprint"),
                "its files do not hash to the manifest's fingerprint")
        return idx


def index_corpus(
    docs: Iterable[dict],
    fields_to_store: Sequence[str] = ("text",),
    tokenizer: Tokenizer | None = None,
) -> InvertedIndex:
    """Build an index from a document row stream in one pass.

    Each row needs docno and text; requested fields are stored verbatim for
    later re-attachment (absent optional fields store as empty strings). A
    stored value must encode as UTF-8: a lone surrogate is refused
    (ValueError). An empty stream yields an empty, still-valid index.
    """
    tokenizer = tokenizer or Tokenizer()
    tokenize, fields = tokenizer.tokenize, str_tuple(fields_to_store, "fields_to_store")
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    token_ids, doclens = array("i"), array("i")
    docnos: list[str] = []
    seen: set[str] = set()
    # each stored field's blob and offsets, grown in place, never joined
    stored = [(bytearray(), array("q", [0])) for _ in fields]
    columns = [(f, blob, offsets) for f, (blob, offsets) in zip(fields, stored)]
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
        for f, blob, offsets in columns:
            try:
                blob += str(row.get(f, "")).encode()
            except UnicodeEncodeError as exc:
                raise ValueError(f"stored field {f!r} of corpus document {docno!r} "
                                 f"is not UTF-8 encodable: {exc}") from None
            offsets.append(len(blob))
    return InvertedIndex.__new__(InvertedIndex)._set(
        tokenizer, fields, list(term_ids), docnos, stored,
        _csr(token_ids, doclens, len(term_ids)))


def _csr(token_ids: array, doclens: array, n_terms: int) -> dict[str, np.ndarray]:
    """CSR postings from the term ids of all documents' tokens, concatenated
    in document order.

    Consumes `token_ids`: when the keys fit int32 they are computed and
    sorted in its own buffer, which then holds sorted keys, not term ids.
    Pass a buffer that nothing reads afterwards and that is never passed
    again: index_corpus passes its own, InvertedIndex() fresh empty ones.
    The returned doclens is a view of `doclens`."""
    lens = np.asarray(doclens, dtype=_ARRAYS["doclens"])
    n_docs = len(lens)
    # one key per token, term-major: sorting the keys groups the postings by
    # term with doc ids ascending, and the run lengths are the tfs; every key
    # is below n_terms * n_docs
    key_type = np.int32 if n_terms * n_docs < 2**31 else np.int64
    keys = np.asarray(token_ids, dtype=key_type)  # a view of token_ids if int32
    keys *= n_docs
    keys += np.repeat(np.arange(n_docs, dtype=key_type), lens)
    keys.sort()
    # each run of equal keys is one posting; its first key gives the term
    # and doc id, and its length the tf
    first = np.empty(len(keys), bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    # the diff of the starts with len(keys) appended, written as int32
    tfs = np.empty(len(starts), _ARRAYS["tfs"])
    np.subtract(starts[1:], starts[:-1], out=tfs[:-1])
    tfs[-1:] = len(keys) - starts[-1:]
    keys = keys[starts]
    del starts
    # term t's postings start at the first key >= t * n_docs
    bounds = np.arange(n_terms + 1, dtype=key_type)
    bounds *= n_docs
    indptr = np.searchsorted(keys, bounds).astype(_ARRAYS["indptr"], copy=False)
    keys %= max(n_docs, 1)
    return {
        "indptr": indptr,
        "doc_ids": keys.astype(_ARRAYS["doc_ids"], copy=False),
        "tfs": tfs,
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


# postings per step of BM25Retriever's impact build
_IMPACT_BLOCK = 1 << 16


@dataclass(unsafe_hash=True, repr=False)
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
        check_positive(self.num_results, "num_results")
        self.bm25 = self.bm25 or BM25Params()
        self.include_fields = str_tuple(self.include_fields, "include_fields")
        self._impact = self._impacts()

    def _impacts(self) -> np.ndarray:
        """Each posting's BM25 contribution, read-only and aligned with the
        index's doc ids: idf * (tf * (k1 + 1)) / (tf + norm), the same IEEE
        operations in the same order as bm25_score. Built block by block, so
        the scratch memory is a few blocks, not a few postings arrays."""
        idx = self.index
        n, k1, b, avgdl = idx.n_docs, self.bm25.k1, self.bm25.b, idx.avgdl
        # per-doc length norm; only read for docs with postings, so avgdl > 0 there
        dl = idx._doclens / avgdl if avgdl else np.zeros(n)
        norm = k1 * (1.0 - b + b * dl)
        indptr = idx._indptr
        df = np.diff(indptr)
        # math.log, as bm25_score takes it: np.log need not round the same way
        idf = np.array(list(map(math.log, ((n - df + 0.5) / (df + 0.5) + 1.0).tolist())))
        impact = np.empty(len(idx._doc_ids))
        for s in range(0, len(impact), _IMPACT_BLOCK):
            e = min(s + _IMPACT_BLOCK, len(impact))
            # the terms with postings in [s, e), and how many each has there
            first, last = np.searchsorted(indptr, (s, e - 1), side="right") - 1
            counts = np.diff(np.clip(indptr[first:last + 2], s, e))
            tfs = idx._tfs[s:e]
            impact[s:e] = (np.repeat(idf[first:last + 1], counts) * (tfs * (k1 + 1.0))
                           / (tfs + norm[idx._doc_ids[s:e]]))
        impact.flags.writeable = False  # _cut copies share it
        return impact

    def _cut(self, k: int) -> BM25Retriever:
        # exact, as _top's order is total; a shallow copy keeps any subclass
        # and its state, and leaves this (possibly shared) instance as it is
        if k >= self.num_results:
            return self
        cut = copy.copy(self)
        cut.num_results = k
        return cut

    def _top(self, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Doc ids and float64 scores of the top num_results by (score desc,
        docno asc). Every contribution is positive, so the nonzero entries
        of `acc` are exactly the docs that contain a query term."""
        k, n = self.num_results, len(acc)
        # the k-th largest score, 0 when fewer than k docs scored; every doc
        # tied with it survives to the sort
        kth = np.partition(acc, n - k)[n - k] if n > k else 0.0
        cand = np.flatnonzero(acc >= kth) if kth > 0 else np.flatnonzero(acc)
        scores = acc[cand]
        order = np.lexsort((self.index._docno_rank[cand], -scores))[:k]
        return cand[order], scores[order]

    def apply(self, frame: Frame) -> Frame:
        idx = self.index
        n = idx.n_docs
        span, doc_ids, impact = idx._span, idx._doc_ids, self._impact
        segments: list[_Segment] = []
        for row in frame.rows:
            # the query terms' postings in query term order, doc ids as intp
            # so that bincount takes them uncopied; it adds each doc's weights
            # in that order from 0.0, as bm25_score's loop does. Without
            # postings it would raise (no arrays) or count in int64
            spans = [s for s in map(span, idx.tokenizer.tokenize(row["query"]))
                     if s.start != s.stop]
            acc = np.bincount(np.concatenate([doc_ids[s] for s in spans], dtype=np.intp),
                              np.concatenate([impact[s] for s in spans]),
                              minlength=n) if spans else np.zeros(n)
            top, scores = self._top(acc)
            ids = top.tolist() if self.include_fields else []
            fields = tuple((f, idx._column(f, ids)) for f in self.include_fields)
            segments.append(_Segment(row["qid"], row["query"], idx._docnos[top].tolist(),
                                     scores, fields))
        # the rows are built only if something reads them
        return Frame._ranked(segments)


bm25_retriever = BM25Retriever


@dataclass(unsafe_hash=True, repr=False)
class TextAttacher(Transformer):
    """R -> R transformer adding stored fields to result rows by docno."""

    index: InvertedIndex
    fields: Sequence[str]

    signature = Signature(SemType.R, SemType.R)
    name = "attach_text"

    def __post_init__(self) -> None:
        self.fields = str_tuple(self.fields, "fields")

    def apply(self, frame: Frame) -> Frame:
        idx = self.index
        ids = [idx.doc_id(row["docno"]) for row in frame.rows]
        rows = [dict(row) for row in frame.rows]
        # only the requested fields are decoded
        for f in self.fields:
            for row, value in zip(rows, idx._column(f, ids)):
                row[f] = value
        # fresh dicts that nothing else holds: the frame takes them uncopied
        return Frame._owning(SemType.R, rows)


attach_text = TextAttacher


@dataclass(unsafe_hash=True, repr=False)
class Indexer(Transformer):
    """D -> Terminal transformer; consumes a document frame and leaves the
    built index on `self.index`. The one transformer with write-on-apply
    state, so build each instance in a single task."""

    fields_to_store: Sequence[str] = ("text",)
    tokenizer: Tokenizer | None = None

    signature = Signature(SemType.D, TERMINAL)
    name = "indexer"

    def __post_init__(self) -> None:
        self.fields_to_store = str_tuple(self.fields_to_store, "fields_to_store")
        self.tokenizer = self.tokenizer or Tokenizer()
        self.index: InvertedIndex | None = None

    def apply(self, frame: Frame) -> Frame:
        self.index = index_corpus(
            frame.rows, self.fields_to_store, self.tokenizer
        )
        return terminal_frame()


indexer = Indexer
