"""The README states the public contract: every public name and every option."""

from __future__ import annotations

import re
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
