"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "largequot")
                 .glob("*.py"))


def test_the_package_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "periodic.py",
                                               "verbal.py", "words.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement_in_the_package(path):
    # python -O strips assert statements: a runtime check must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _names_int(node):
    if isinstance(node, ast.Tuple):
        return any(_names_int(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "int"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_isinstance_int_in_the_package(path):
    # True is an int to isinstance: integers are read through
    # largequot.errors.check_int, which refuses a bool
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and _names_int(node.args[1])]
    assert lines == [], f"{path.name} has isinstance(.., int) at lines {lines}"


def test_the_isinstance_int_walk_finds_every_form():
    for text in ("isinstance(x, int)", "isinstance(x, (str, int))",
                 "isinstance(x, (str, (int, float)))"):
        call = ast.parse(text).body[0].value
        assert _names_int(call.args[1]), text
    assert not _names_int(ast.parse("isinstance(x, Word)").body[0].value.args[1])
