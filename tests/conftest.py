"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from itertools import combinations
from math import comb, gcd

import pytest

import largequot
from largequot import verbal
from largequot.quotients import BUILT_QUOTIENTS


def _package_env():
    """The environment with this package's source tree on PYTHONPATH, and
    beside it this directory, so a subprocess imports the oracles module."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(largequot.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, tests, env.get("PYTHONPATH")) if p)
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
def empty_quotient_table():
    """The process-level table of built quotients, emptied before the test
    and after it, for tests that count, refuse or evict builds, with the
    caches of verbal levels and prime sequences, for tests that read a
    level's lazy state."""
    clear_caches()
    yield BUILT_QUOTIENTS
    clear_caches()


def clear_caches():
    """Empty the table of built quotients and the verbal level caches."""
    BUILT_QUOTIENTS.clear()
    verbal._level.cache_clear()
    verbal._primeseq.cache_clear()


def _det(m):
    """Determinant of a square integer matrix, by fraction-free elimination."""
    m = [list(row) for row in m]
    sign, previous = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1]


# the most k x k minors, over every k, the oracle takes gcds of: every matrix
# of at most 7 rows and 7 columns (C(14, 7) = 3432 minors), and no 8 x 8
MINOR_BUDGET = 10**4


def _smith_invariants_oracle(rows, gen_count):
    """Abelian invariants of Z^gen_count / (row span), by determinantal
    divisors: d_k is the gcd of the k x k minors and the invariant factors
    are s_k = d_k / d_{k-1} up to the rank, so no Smith form is run.

    Zero rows and columns add no minors and are left out of them.  A matrix
    whose minors would number past MINOR_BUDGET is first cut down by unit
    pivots: a row with an entry +-1 at column c clears that column from the
    other rows and leaves with it, a Z/1 factor.
    """
    rows = [list(row) for row in rows]
    cols = list(range(gen_count))
    while True:
        rows = [row for row in rows if any(row[c] for c in cols)]
        live = [c for c in cols if any(row[c] for row in rows)]
        size = min(len(rows), len(live))
        if comb(len(rows) + len(live), size) <= MINOR_BUDGET:
            break
        pivot, c = next(((row, c) for row in rows for c in live
                         if abs(row[c]) == 1), (None, None))
        if pivot is None:
            raise AssertionError("no unit pivot to shrink the matrix by")
        rows = [row for row in rows if row is not pivot]
        for row in rows:
            f = row[c] * pivot[c]
            for k in cols:
                row[k] -= f * pivot[k]
        cols.remove(c)
    invariants, previous = [], 1
    for k in range(1, size + 1):
        d = 0
        for chosen in combinations(rows, k):
            for at in combinations(live, k):
                d = gcd(d, _det([[row[c] for c in at] for row in chosen]))
        if d == 0:
            break
        invariants.append(d // previous)
        previous = d
    return [s for s in invariants if s > 1] + [0] * (len(cols) - len(invariants))


@pytest.fixture
def smith_invariants_oracle():
    """``(rows, gen_count) -> abelian invariants``, by determinantal divisors."""
    return _smith_invariants_oracle
