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
