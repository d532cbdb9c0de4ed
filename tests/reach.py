"""Which functions of ``src/largequot/`` the shipped paths never enter.

Runs every entry of the CLI corpus in this process (through
``record_cli_corpus.run_entry``) and then ``bench/run.py --workload W
--pool 1 --seed 0`` for each workload, all under ``sys.setprofile``, and
prints each code object of the package (function, method, lambda, class
body or module body) that none of them entered, with its file and line.
A name on the list is reached by the tests alone, or by nothing.

    python tests/reach.py

The report is for reading: the script exits 0 whatever the list holds.
The pool runs write their digests to ``bench/out/``, as a pool run does.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "largequot")
BENCH_RUN = os.path.join(ROOT, "bench", "run.py")
WORKLOADS = ("certify", "avoid", "verbal")


def _key(code):
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def package_code():
    """(file, first line, name) of every code object the package's sources
    compile to, module bodies included."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            found += [_key(c) for c in _code_objects(module)]
    return found


def _run_corpus():
    import record_cli_corpus

    for entry in record_cli_corpus.load_corpus().values():
        record_cli_corpus.run_entry(entry)


def _run_pool(workload):
    argv = sys.argv
    sys.argv = [BENCH_RUN, "--workload", workload, "--pool", "1", "--seed", "0"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(BENCH_RUN, run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"the {workload} pool run exited with {exc.code!r}")
    finally:
        sys.argv = argv


def entered_code(runs):
    """The code objects entered while the runs ran, by id: each is kept, so
    no id is reused by another while the runs go on."""
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    sys.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
    return {_key(c) for c in seen.values()}


def main():
    # the checkout's package and the benchmark's modules, imported only
    # once the profile is set, so their module bodies count as entered
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(BENCH_RUN)]
    runs = [_run_corpus] + [lambda w=w: _run_pool(w) for w in WORKLOADS]
    entered = entered_code(runs)
    code = package_code()
    missed = [key for key in code if key not in entered]
    for path, line, name in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line}: {name}")
    print(f"reach: entered {len(code) - len(missed)} of {len(code)} code "
          f"objects of src/largequot/; {len(missed)} never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
