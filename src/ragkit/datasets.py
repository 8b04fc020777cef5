"""File ingestion and interop: JSONL corpora, topics and gold answers, TREC
run files, and a small dataset registry.

Corpora stream one JSON object per line (docno and text required, extras
preserved), so indexing a large file never holds it in memory. Topics carry
qid and query; answer files carry qid and a non-empty answers list. Run
files use the classic six-column format "qid Q0 docno rank score tag" with
scores at six decimal places.
"""

from __future__ import annotations

import configparser
import json
from functools import partialmethod
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import (
    EmptyGold,
    MissingField,
    MissingSplit,
    ParseError,
    UnknownDataset,
)
from .frame import Frame, SemType, _ranked_columns, validate

_T = TypeVar("_T")


def _parsed_lines(path: str | Path, parse: Callable[[str], _T]) -> Iterator[tuple[int, _T]]:
    """(line number, parse(line)) for each non-blank line of a UTF-8 file
    (a leading byte-order mark skipped), numbered from 1; a ValueError from
    parse fails as ParseError at path:line, and a missing file as
    ParseError at path."""
    p = Path(path)
    if not p.exists():
        raise ParseError("file not found", source=str(p))
    with p.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = parse(line)
            except ValueError as exc:
                raise ParseError(str(exc), source=str(p), line=lineno) from None
            yield lineno, value


def _json_object(line: str) -> dict:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    return obj


def _jsonl_records(path: str | Path, required: Sequence[str] = (),
                   label: str = "") -> Iterator[dict]:
    """The JSON objects of a JSONL file, blank lines skipped; an object
    missing a required field fails as MissingField at path:line plus label."""
    for lineno, obj in _parsed_lines(path, _json_object):
        for name in required:
            if name not in obj:
                raise MissingField(name, f"{path}:{lineno}{label}")
        yield obj


def load_corpus(paths: str | Path | Sequence[str | Path]) -> Iterator[dict]:
    """Stream document rows from one or more JSONL files, in file order.

    Yields plain dicts with docno and text as strings plus any extra fields
    verbatim. Duplicate docnos are caught downstream at indexing time; this
    stays a constant-memory pass.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    for path in paths:
        for obj in _jsonl_records(path, ("docno", "text")):
            row = dict(obj)
            row["docno"] = str(row["docno"])
            row["text"] = str(row["text"])
            yield row


def load_topics(path: str | Path, split: str = "") -> Frame:
    """Read a qid/query JSONL file into a Q frame."""
    rows = []
    label = f" ({split})" if split else ""
    for obj in _jsonl_records(path, ("qid", "query"), label):
        rows.append({"qid": str(obj["qid"]), "query": str(obj["query"])})
    frame = Frame(SemType.Q, rows)
    validate(frame, SemType.Q)
    return frame


def load_answers(path: str | Path) -> Frame:
    """Read a qid/answers JSONL file into a GA frame (one row per qid, the
    answers list kept verbatim)."""
    rows = []
    for obj in _jsonl_records(path, ("qid", "answers")):
        answers = obj["answers"]
        if not isinstance(answers, list) or not answers:
            raise EmptyGold(str(obj["qid"]))
        rows.append({"qid": str(obj["qid"]), "ganswer": [str(a) for a in answers]})
    frame = Frame(SemType.GA, rows)
    validate(frame, SemType.GA)
    return frame


# -- run files ----------------------------------------------------------------


def write_run(frame: Frame, path: str | Path, tag: str = "run") -> None:
    """Write the run_lines of an R frame to a file, one per line."""
    lines = run_lines(frame, tag)
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def run_lines(frame: Frame, tag: str = "run") -> list[str]:
    """An R frame as six-column run lines, rows ordered by (qid, rank),
    scores fixed at six decimal places. The tag, every qid and every docno
    must be one non-empty word, so that `read_run` can read the lines back;
    any other raises ValueError before a line is built."""
    if not isinstance(tag, str) or tag.split() != [tag]:
        raise ValueError(f"run tag must be a non-empty str without whitespace, got {tag!r}")
    validate(frame, SemType.R)
    columns = _ranked_columns(frame)
    _check_words("qid", [qid for qid, _, _ in columns])
    _check_words("docno", list(chain.from_iterable(docnos for _, docnos, _ in columns)))
    tag = tag.replace("%", "%%")
    lines: list[str] = []
    for qid, docnos, scores in columns:
        # one %-format per qid: its lines joined by newlines, which no
        # checked qid, docno or tag contains
        n = len(docnos)
        args: list = [None] * (3 * n)
        args[0::3] = docnos
        args[1::3] = range(n)
        args[2::3] = scores
        line = qid.replace("%", "%%") + " Q0 %s %d %.6f " + tag
        lines += ("\n".join([line] * n) % tuple(args)).split("\n")
    return lines


def _check_words(column: str, values: list[str]) -> None:
    """Refuse an empty value or one containing whitespace, which `read_run`
    could not split back, with C-level passes over the whole column."""
    joined = "".join(values)
    if values and (not all(values) or joined.split() != [joined]):
        bad = next(v for v in values if v.split() != [v])
        raise ValueError(f"run file {column} must be a non-empty str without whitespace, "
                         f"got {bad!r}")


def _run_row(line: str) -> dict:
    parts = line.split()
    if len(parts) != 6:
        raise ValueError(f"expected 6 columns, got {len(parts)}")
    qid, _q0, docno, rank, score, _tag = parts
    return {"qid": qid, "docno": docno, "rank": int(rank), "score": float(score)}


def read_run(path: str | Path) -> Frame:
    """Parse a six-column run file back into an R frame."""
    frame = Frame(SemType.R, [row for _, row in _parsed_lines(path, _run_row)])
    validate(frame, SemType.R)
    return frame


# -- dataset registry ----------------------------------------------------------


class DatasetRegistry:
    """Named datasets resolved from a small INI manifest.

    One section per dataset; keys are `corpus` (whitespace-separated JSONL
    paths), `topics.<split>` and `answers.<split>`. Paths are relative to
    the manifest file. A split that is not listed is a lookup error, never
    silently empty, mirroring collections that ship dev but no test split.

        [nq_mini]
        corpus = corpus.jsonl
        topics.dev = topics_dev.jsonl
        answers.dev = answers_dev.jsonl
    """

    def __init__(self, entries: dict[str, dict[str, Path]]) -> None:
        self._entries = entries

    @classmethod
    def load(cls, manifest_path: str | Path) -> "DatasetRegistry":
        p = Path(manifest_path)
        if not p.exists():
            raise ParseError("file not found", source=str(p))
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(p.read_text(encoding="utf-8"), source=str(p))
        except configparser.Error as exc:
            raise ParseError(str(exc), source=str(p)) from None
        base = p.parent
        entries: dict[str, dict] = {}
        for section in parser.sections():
            spec: dict = {"corpus": [], "topics": {}, "answers": {}}
            for key, value in parser.items(section):
                if key == "corpus":
                    spec["corpus"] = [base / v for v in value.split()]
                elif key.startswith("topics."):
                    spec["topics"][key.split(".", 1)[1]] = base / value.strip()
                elif key.startswith("answers."):
                    spec["answers"][key.split(".", 1)[1]] = base / value.strip()
                else:
                    raise ParseError(
                        f"unknown registry key {key!r} in [{section}]",
                        source=str(p),
                    )
            entries[section] = spec
        return cls(entries)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def _entry(self, name: str) -> dict:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownDataset(name, self._entries) from None

    def splits(self, name: str) -> list[str]:
        return sorted(self._entry(name)["topics"])

    def corpus_paths(self, name: str) -> list[Path]:
        return list(self._entry(name)["corpus"])

    def get_corpus(self, name: str) -> Iterator[dict]:
        return load_corpus(self.corpus_paths(name))

    def _split_path(self, kind: str, name: str, split: str) -> Path:
        paths = self._entry(name)[kind]
        if split not in paths:
            raise MissingSplit(name, kind, split, paths)
        return paths[split]

    topics_path = partialmethod(_split_path, "topics")
    answers_path = partialmethod(_split_path, "answers")

    def get_topics(self, name: str, split: str) -> Frame:
        return load_topics(self.topics_path(name, split), split)

    def get_answers(self, name: str, split: str) -> Frame:
        return load_answers(self.answers_path(name, split))


# -- converters -----------------------------------------------------------------
#
# One-shot converters for corpora and QA files in the widely used
# id/contents and id/question/golden_answers JSONL layout.


def convert_qa_corpus(src: str | Path, dst: str | Path) -> int:
    """Convert an id/contents corpus file to docno/text JSONL; returns the
    number of documents written. Extra fields are preserved."""
    count = 0
    with Path(dst).open("w", encoding="utf-8") as out:
        for obj in _jsonl_records(src, ("id", "contents")):
            row = {k: v for k, v in obj.items() if k not in ("id", "contents")}
            row["docno"] = str(obj["id"])
            row["text"] = str(obj["contents"])
            out.write(json.dumps(row, ensure_ascii=False) + "\n")
            count += 1
    return count


def convert_qa_topics(
    src: str | Path, topics_dst: str | Path, answers_dst: str | Path
) -> int:
    """Split an id/question/golden_answers QA file into a topics file and an
    answers file; returns the number of topics written."""
    count = 0
    with Path(topics_dst).open("w", encoding="utf-8") as topics_out, \
            Path(answers_dst).open("w", encoding="utf-8") as answers_out:
        for obj in _jsonl_records(src, ("id", "question", "golden_answers")):
            answers = obj["golden_answers"]
            if not isinstance(answers, list) or not answers:
                raise EmptyGold(str(obj["id"]))
            topics_out.write(json.dumps(
                {"qid": str(obj["id"]), "query": str(obj["question"])},
                ensure_ascii=False) + "\n")
            answers_out.write(json.dumps(
                {"qid": str(obj["id"]), "answers": [str(a) for a in answers]},
                ensure_ascii=False) + "\n")
            count += 1
    return count
