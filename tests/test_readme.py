"""The README states the public contract: every public name and every option,
and its Library example prints what its comments say."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import hypersolids
from hypersolids.cli import COMMANDS, build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def mentioned(word: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", README) is not None


def test_the_readme_names_every_public_name():
    assert [name for name in hypersolids.__all__ if not mentioned(name)] == []


@pytest.mark.parametrize("command", COMMANDS)
def test_the_readme_names_every_option_of_each_command(command):
    parser = build_parser(command)
    (subparsers,) = [action for action in parser._actions if action.dest == "command"]
    options = [option for action in subparsers.choices[command]._actions
               for option in action.option_strings if option.startswith("--")]
    assert options
    assert [option for option in options if not mentioned(option)] == []


def library_example() -> str:
    """The README's first ```python block, the Library example."""
    match = re.search(r"^```python\n(.*?)^```$", README, re.S | re.M)
    assert match, "the README has no ```python block"
    return match.group(1)


def test_the_readme_library_example_runs_and_prints_what_its_comments_say():
    # every one-line expression whose comment starts with a value, as in
    # "# 35   (...)", "# 25: ..." or "# 162, 162, True", must evaluate to it
    block = library_example()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    comments = {token.start[0]: token.string[1:].strip()
                for token in tokenize.generate_tokens(io.StringIO(block).readline)
                if token.type == tokenize.COMMENT}
    checked = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr) or node.lineno != node.end_lineno:
            continue
        leading = re.match(r"(.+?)(?::|\s{2,}|$)", comments.get(node.lineno, ""))
        if leading is None:
            continue
        try:
            want = ast.literal_eval(leading.group(1))
        except (ValueError, SyntaxError):
            continue
        expression = ast.get_source_segment(block, node)
        assert eval(expression, namespace) == want, expression
        checked.append(expression)
    assert len(checked) >= 10, checked


def test_the_readme_quotes_no_timing():
    # timings belong to one host: CHANGES.md and the BENCH_*.json files keep them
    timings = re.findall(r"\d\s*(?:µs|ms|s)\b", README)
    assert timings == []


def test_the_readme_names_no_private_attribute():
    # how a layer works, and the private names it works with, belong in its
    # module docstring; the README names only what a caller can rely on
    private = re.findall(r"[\w.]*\w\._(?!_)\w+", README)
    assert private == []
