"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import pytest

import largequot

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


def test_one_function_body_draws_random_letters():
    # the frozen draw behind every sampler report and pool digest lives in
    # one kernel, so no second copy can drift from it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(inner, ast.Attribute) and inner.attr == "getrandbits"
                    for inner in ast.walk(node)):
                found.append(f"{path.name}:{node.name}")
    assert found == ["words.py:_reduced_draws"]


# public names deleted because no command, benchmark run or oracle reached
# them: (module, class or None, name)
REMOVED = [
    ("periodic", None, "format_order"),
    ("periodic", None, "parse_order"),
    ("quotients", "FiniteQuotient", "from_spec"),
    ("series", "TruncSeries", "zero"),
    ("series", "TruncSeries", "variable"),
    ("series", "TruncSeries", "__pow__"),
    ("words", "Word", "conjugate"),
    ("words", "Word", "cyclic_decomposition"),
    ("verbal", "VerbalLevel", "schreier_rank"),
    ("verbal", None, "quotient_order"),
    ("largeness", None, "_witness_counts"),
    ("verbal", "PrimeSeq", "__getitem__"),
]


def test_every_exported_name_resolves_once():
    assert len(set(largequot.__all__)) == len(largequot.__all__)
    missing = [name for name in largequot.__all__
               if not hasattr(largequot, name)]
    assert missing == []


@pytest.mark.parametrize("module, owner, name", REMOVED,
                         ids=[f"{owner or module}.{name}"
                              for module, owner, name in REMOVED])
def test_a_removed_name_is_neither_defined_nor_exported(module, owner, name):
    assert name not in largequot.__all__
    assert not hasattr(largequot, name)
    scope = importlib.import_module(f"largequot.{module}")
    if owner is not None:
        scope = getattr(scope, owner)
    assert name not in vars(scope)
