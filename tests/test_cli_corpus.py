"""Every CLI document, error text and exit code of the frozen corpus.

The entries live in ``tests/cli_corpus/`` and are recorded by
``tests/record_cli_corpus.py``, which rewrites them only when asked.
"""

import json
import subprocess
import sys

import pytest

from record_cli_corpus import _entries, load_corpus, run_entry

CORPUS = load_corpus()

# a few entries of each shape, run again in one fresh python -O
UNDER_O = [
    "certify_default",
    "certify_output_file",
    "witness_unit_extra_param",
    "witness_unit_mod6_over_cap",
    "verify_unit_invertible",
    "verify_over_cap",
    "construct_periodic_jsonl",
    "usage_not_an_int",
]


def _expected(entry):
    return {key: entry[key] for key in ("stdout", "stderr", "exit", "outputs")}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_entry(name):
    entry = CORPUS[name]
    assert run_entry(entry) == _expected(entry)


def test_corpus_entries_under_O(run_under_O):
    found = json.loads(run_under_O(
        "import json; from record_cli_corpus import load_corpus, run_entry; "
        "corpus = load_corpus(); "
        f"print(json.dumps({{n: run_entry(corpus[n]) for n in {UNDER_O!r}}}))"))
    assert found == {name: _expected(CORPUS[name]) for name in UNDER_O}


def test_corpus_entries_without_sympy(package_env):
    # sympy is optional: every entry, run again in one fresh process where
    # importing it fails, gives the same documents, texts and exit codes
    code = ("import json, sys; sys.modules['sympy'] = None; "
            "from record_cli_corpus import load_corpus, run_entry; "
            "corpus = load_corpus(); "
            "print(json.dumps({n: run_entry(e) for n, e in corpus.items()}))")
    found = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=package_env, capture_output=True,
        text=True, timeout=600, check=True).stdout)
    assert found == {name: _expected(entry) for name, entry in CORPUS.items()}


def test_corpus_holds_every_defined_entry():
    defined = _entries()
    assert sorted(defined) == sorted(CORPUS)
    for name, (argv, config, files) in defined.items():
        if callable(files):
            files = files(CORPUS)
        assert (argv, config, files) == (
            CORPUS[name]["argv"], CORPUS[name]["config"], CORPUS[name]["files"]), name


def test_corpus_covers_every_subcommand():
    from largequot.cli import build_parser
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert commands <= {entry["argv"][0] for entry in CORPUS.values()
                        if entry["argv"]}
