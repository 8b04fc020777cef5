"""README examples: the Python example runs and prints its answer, and each
pipeline expression shown parses, type-checks as Q -> A and prints back to
itself."""

import re
from pathlib import Path

from ragkit.exprs import Env, parse, print_expr
from ragkit.frame import SemType
from ragkit.transformer import Signature, type_check

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first fenced block of language `lang` after the first match of
    the pattern `after`."""
    start = re.search(after, README).end()
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_python_example_prints_its_answer(capsys):
    exec(_block("", "python"), {})
    assert capsys.readouterr().out == "the eiffel tower is in paris\n"


def test_expression_examples_type_check_and_print_back(small_index):
    lines = _block(r"renders a pipeline back to\s+this syntax\.", "").splitlines()
    assert lines
    env = Env(index_provider=lambda: small_index)
    for line in lines:
        node = parse(line, env)
        assert type_check(node) == Signature(SemType.Q, SemType.A), line
        assert print_expr(node) == line
