"""Shared fixtures for the test suite."""

import os
import subprocess
import sys

import pytest

import largequot
from largequot import verbal


def _package_env():
    """The environment with this package's source tree on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(largequot.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_under_O(code):
    """Run ``code`` in a fresh ``python -O`` on this package; return stdout."""
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=_package_env(), capture_output=True, text=True, timeout=120,
        check=True,
    ).stdout


@pytest.fixture
def package_env():
    """Environment for a subprocess that imports this package."""
    return _package_env()


@pytest.fixture
def run_under_O():
    """Checks that must hold under ``python -O``, which strips asserts."""
    return _run_under_O


def _schreier_tables_oracle(quotient):
    """Schreier generator labels and crossing table, from the set of tree
    edges: the two-pass construction the one-pass table replaced."""
    tree_edges = set()
    for child in range(1, quotient.order):
        parent, (gen, exp) = quotient.tree_parent[child]
        tree_edges.add((parent, gen) if exp == 1 else (child, gen))
    labels = tuple((c, g) for c in range(quotient.order)
                   for g in range(1, quotient.rank + 1)
                   if (c, g) not in tree_edges)
    table = [None] * (quotient.order * quotient.rank)
    for position, (c, g) in enumerate(labels):
        table[c * quotient.rank + g - 1] = position
    return labels, table


@pytest.fixture
def schreier_tables_oracle():
    """``quotient -> (labels, crossing table)`` by the tree-edge set."""
    return _schreier_tables_oracle


@pytest.fixture
def empty_level_table():
    """The process-level table of verbal quotients, emptied before the test
    and after it, for tests that count, refuse or evict builds."""
    verbal._LEVELS.clear()
    yield verbal._LEVELS
    verbal._LEVELS.clear()
