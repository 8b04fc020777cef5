"""Exception types shared across the package.

Every error raised by ragkit derives from RagkitError so callers can catch
the whole family with one clause. Frame-shape problems derive from
ValidationError.
"""

from __future__ import annotations

import math
from numbers import Real


class RagkitError(Exception):
    """Base class for all ragkit errors."""


class ValidationError(RagkitError):
    """A frame violates its schema or key invariants."""


def _in(context: str) -> str:
    return f" ({context})" if context else ""


class MissingColumn(ValidationError):
    def __init__(self, column: str, context: str = ""):
        self.column = column
        super().__init__(f"missing required column {column!r}{_in(context)}")


class DuplicateKey(ValidationError):
    def __init__(self, key, context: str = ""):
        self.key = key
        super().__init__(f"duplicate primary key {key!r}{_in(context)}")


class RankViolation(ValidationError):
    def __init__(self, qid: str, detail: str):
        self.qid = qid
        super().__init__(f"rank invariant violated for qid {qid!r}: {detail}")


class KindMismatch(ValidationError):
    pass


class TypeMismatch(RagkitError):
    """Pipeline composition error: a transformer's output type does not
    match the next transformer's input type."""

    def __init__(self, expected, actual, path: str = ""):
        self.expected = expected
        self.actual = actual
        self.path = path
        loc = f" at {path}" if path else ""
        super().__init__(f"type mismatch{loc}: expected {expected}, got {actual}")


class InvalidK(RagkitError, ValueError):
    """A count that must be a positive int is not one: a rank cutoff k,
    num_results, k_docs, docs_per_iteration or max_iterations."""

    def __init__(self, k, name: str = "k"):
        self.k = k
        self.name = name
        super().__init__(f"{name} must be a positive int ({name} > 0), got {k!r}")


def check_positive(k, name: str = "k") -> None:
    """Raise InvalidK unless k is an int (not a bool) above zero."""
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise InvalidK(k, name)


def check_finite(value, name: str) -> None:
    """Raise ValueError naming `name` unless value is a finite real number,
    such as an int or float; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_str(value, name: str) -> None:
    """Raise TypeError naming `name` unless value is a str."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a str, got {value!r}")


def str_tuple(values, name: str) -> tuple[str, ...]:
    """`values` as a tuple; TypeError naming `name` unless it is an iterable
    of str. A bare str is refused too: it would split into its characters."""
    try:
        out = None if isinstance(values, str) else tuple(values)
    except TypeError:  # not iterable
        out = None
    if out is None or not all(isinstance(v, str) for v in out):
        raise TypeError(f"{name} must be a sequence of str, got {values!r}")
    return out


class PipelineError(RagkitError):
    """A node failed during pipeline execution. `path` names the node in
    the tree that was run and `cause` is the original exception; for a
    stage that runs a pipeline of its own (ircot's retriever), `cause` is
    the inner PipelineError, whose path is within that pipeline."""

    def __init__(self, path: str, cause: Exception):
        self.path = path
        self.cause = cause
        super().__init__(f"error at {path or '<root>'}: {cause}")


class DuplicateDocno(RagkitError):
    def __init__(self, docno: str):
        self.docno = docno
        super().__init__(f"duplicate docno {docno!r} in corpus")


class UnknownDocno(RagkitError):
    def __init__(self, docno: str):
        self.docno = docno
        super().__init__(f"docno {docno!r} not present in index")


class MissingField(RagkitError):
    def __init__(self, field: str, context: str = ""):
        self.field = field
        super().__init__(f"missing field {field!r}{_in(context)}")


class TemplateError(RagkitError):
    pass


class BackendError(RagkitError):
    def __init__(self, message: str, qid: str | None = None, status: int | None = None):
        self.qid = qid
        self.status = status
        if qid is not None:
            message = f"{message} (qid={qid})"
        super().__init__(message)


class ParseError(RagkitError):
    """Malformed data file (JSONL corpus/topics/answers, run file, registry)."""

    def __init__(self, message: str, source: str = "", line: int | None = None):
        self.source = source
        self.line = line
        loc = source
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)


class ExprError(RagkitError):
    """Pipeline expression syntax or stage error; carries the character
    offset (a str index, not a byte offset) into the expression."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"at offset {offset}: {message}")


class EmptyGold(ValidationError):
    def __init__(self, qid: str = ""):
        self.qid = qid
        super().__init__(f"empty gold answer list{f' for qid {qid!r}' if qid else ''}")


class MissingGold(RagkitError):
    def __init__(self, qid: str):
        self.qid = qid
        super().__init__(f"no gold answers for topic qid {qid!r}")


class LengthMismatch(RagkitError):
    def __init__(self, na: int, nb: int):
        super().__init__(f"paired samples differ in length: {na} vs {nb}")


class TooFewSamples(RagkitError):
    def __init__(self, n: int):
        super().__init__(f"need at least 2 paired samples, got {n}")


class MissingSplit(RagkitError):
    def __init__(self, dataset: str, kind: str, split: str, available):
        self.dataset = dataset
        self.split = split
        super().__init__(
            f"dataset {dataset!r} has no {kind} split {split!r} "
            f"(available: {sorted(available) or 'none'})"
        )


class UnknownDataset(RagkitError):
    def __init__(self, name: str, available):
        self.name = name
        super().__init__(
            f"unknown dataset {name!r} (registered: {sorted(available) or 'none'})"
        )
