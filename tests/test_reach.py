"""The reach gate's bookkeeping, on sources and traces made up here."""

import pytest

import reach

SOURCE = '''"""A module."""

import os


def used(x):
    """Docstring."""
    if x:
        return [
            x,
        ]
    raise ValueError("never")


def unused():
    return 1


class Box:
    def method(self):
        return lambda: os.sep
'''


def _units():
    return reach.source_units("m.py", SOURCE)


def test_units_are_statements_and_lambdas_keyed_by_function_and_text():
    keys = [key for key, *_ in _units()]
    assert ("m.py", "<module>", "import os") in keys
    assert ("m.py", "used", 'raise ValueError("never")') in keys
    assert ("m.py", "Box.method.<lambda>", "return lambda: os.sep") in keys
    # docstrings compile to no code
    assert not any("Docstring" in text or "A module" in text
                   for _, _, text in keys)
    spans = {key: (first, last) for key, first, last, _ in _units()}
    assert spans["m.py", "used", "return ["] == (9, 11)


def test_a_repeated_line_of_one_function_is_numbered():
    units = reach.source_units(
        "m.py", "def f(x):\n    if x:\n        return 1\n    return 1\n")
    assert [key for key, *_ in units][-2:] == [("m.py", "f", "return 1"),
                                               ("m.py", "f", "return 1 #2")]


def test_a_statement_runs_when_any_of_its_lines_fires():
    # the return spans lines 9-11 and fired on its middle line only
    lines = {1, 3, 6, 15, 19, 20, 8, 10}
    missed, ran = reach.unrun(_units(), lines, set())
    assert ("m.py", "used", "return [") in ran
    assert set(missed) == {("m.py", "used", 'raise ValueError("never")'),
                           ("m.py", "unused", "return 1"),
                           ("m.py", "Box.method", "return lambda: os.sep"),
                           ("m.py", "Box.method.<lambda>", "return lambda: os.sep")}


def test_the_gate_fails_on_a_new_unrun_line_and_on_a_stale_entry():
    missed, ran = reach.unrun(_units(), {1, 3, 6, 8, 10, 12, 15, 19, 20, 21},
                              {21})
    assert missed == [("m.py", "unused", "return 1")]
    assert reach.gate(missed, ran, {}) == ["never runs: m.py | unused | return 1"]
    allowed = {("m.py", "unused", "return 1"): "why",
               ("m.py", "used", 'raise ValueError("never")'): "why",
               ("m.py", "gone", "return 2"): "why"}
    assert reach.gate(missed, ran, allowed) == [
        'allowed but runs: m.py | used | raise ValueError("never")',
        "allowed but names no line: m.py | gone | return 2"]


def test_an_entry_needs_a_reason_and_three_fields(tmp_path):
    path = tmp_path / "allowed.txt"
    path.write_text("# comment\n## why\nm.py | f | a | b\n", encoding="utf-8")
    assert reach.read_allowed(path) == {("m.py", "f", "a | b"): "why"}
    for text in ("m.py | f | x\n", "## why\nm.py | f\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="under a reason"):
            reach.read_allowed(path)
