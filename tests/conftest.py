"""Shared fixtures for the test suite."""

import os
import subprocess
import sys

import pytest

import largequot


def _run_under_O(code):
    """Run ``code`` in a fresh ``python -O`` on this package; return stdout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(largequot.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


@pytest.fixture
def run_under_O():
    """Checks that must hold under ``python -O``, which strips asserts."""
    return _run_under_O
