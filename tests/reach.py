"""Gate: every line of ``src/largequot/`` runs on a shipped path, or is allowed.

Runs every entry of the CLI corpus in this process (through
``record_cli_corpus.run_entry``) and then ``bench/run.py --workload W
--pool 1 --seed 0`` for each workload, all under ``sys.settrace``, and
checks each statement and each lambda of the package:

- a statement ran when a line event fired anywhere in its lines (a
  compound statement's include its body's), and a lambda when its code was
  entered;
- one that did not run fails the gate unless ``tests/reach_allowed.txt``
  names it;
- an entry of that list fails the gate when what it names ran, or when it
  names nothing in the package.

The list keys each entry by file, enclosing function (``<module>`` at the
top level, ``.<lambda>`` appended for a lambda) and the stripped text of
the first line (`` #2`` appended for a second line of the same text in that
function, and so on), so neither line numbers nor the Python version move
it, and files it under the reason the line may stay unrun.

    python tests/reach.py

It prints each failure and a summary line, and exits 1 on any failure.  The
pool runs write their digests to ``bench/out/``, as a pool run does.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "largequot")
BENCH_RUN = os.path.join(ROOT, "bench", "run.py")
ALLOWED = os.path.join(HERE, "reach_allowed.txt")
WORKLOADS = ("certify", "avoid", "verbal")
SEPARATOR = " | "


def _is_code(node):
    """Whether a statement compiles to code: not a docstring or ``...``, nor
    a ``global`` or ``nonlocal`` declaration."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return False
    return not isinstance(node, (ast.Global, ast.Nonlocal))


def source_units(name, text):
    """(key, first line, last line, is lambda) of each statement and lambda
    of one source file, where key is (file, function, stripped line text);
    the n-th unit of a function with the same text as an earlier one has
    `` #n`` appended to it."""
    lines = text.splitlines()
    units = []
    seen = {}

    def add(scope, node, first, last, is_lambda):
        key = (name, scope, lines[node.lineno - 1].strip())
        seen[key] = n = seen.get(key, 0) + 1
        if n > 1:
            key = key[:2] + (f"{key[2]} #{n}",)
        units.append((key, first, last, is_lambda))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.Lambda):
                add(f"{scope}.<lambda>", child, child.lineno, child.lineno, True)
            elif isinstance(child, ast.stmt) and _is_code(child):
                first = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", ())])
                add(scope, child, first, child.end_lineno, False)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = child.name if scope == "<module>" \
                        else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(text), "<module>")
    return units


def package_units():
    """{path: units of that file} for every source file of the package."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as handle:
                found[path] = source_units(name, handle.read())
    return found


def unrun(units, lines, lambdas):
    """The keys of the units that did not run, and of those that did, given
    the lines that fired and the first lines of the lambdas entered."""
    missed, ran = [], []
    for key, first, last, is_lambda in units:
        if first in lambdas if is_lambda else \
                any(n in lines for n in range(first, last + 1)):
            ran.append(key)
        else:
            missed.append(key)
    return missed, ran


def read_allowed(path=ALLOWED):
    """{key: reason} from the allow-list; a ``## reason`` line names the
    reason of the entries below it."""
    allowed, reason = {}, None
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line.startswith("## "):
                reason = line[3:]
            elif line and not line.startswith("#"):
                key = tuple(line.split(SEPARATOR, 2))
                if reason is None or len(key) != 3:
                    raise ValueError(f"{path}:{number}: an entry is "
                                     "'file | function | line' under a reason")
                allowed[key] = reason
    return allowed


def gate(missed, ran, allowed):
    """The failures: units missed and not allowed, entries whose unit ran or
    that name no unit."""
    missed, ran = set(missed), set(ran)
    failures = [f"never runs: {SEPARATOR.join(key)}"
                for key in sorted(missed - set(allowed))]
    for key in allowed:
        if key not in missed:
            what = "runs" if key in ran else "names no line"
            failures.append(f"allowed but {what}: {SEPARATOR.join(key)}")
    return failures


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


def traced(runs):
    """{path: lines that fired} and {path: first lines of the lambdas
    entered}, for the package's files, while the runs ran."""
    lines, lambdas, inside = {}, {}, {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if path not in inside:
            inside[path] = os.path.dirname(os.path.realpath(path)) == PACKAGE
            lines[path], lambdas[path] = set(), set()
        if not inside[path]:
            return None
        if code.co_name == "<lambda>":
            lambdas[path].add(code.co_firstlineno)
        return local

    sys.settrace(trace)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(None)
    real = {os.path.realpath(p): p for p in inside if inside[p]}
    return ({r: lines[p] for r, p in real.items()},
            {r: lambdas[p] for r, p in real.items()})


def _executable_lines(path):
    """The lines the file's code objects map instructions to."""
    with open(path, encoding="utf-8") as handle:
        stack = [compile(handle.read(), path, "exec")]
    found = set()
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if hasattr(c, "co_code")]
    return found


def main():
    # the checkout's package and the benchmark's modules, imported only
    # once the trace is set, so their module bodies count as run
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(BENCH_RUN)]
    runs = [_run_corpus] + [lambda w=w: _run_pool(w) for w in WORKLOADS]
    lines, lambdas = traced(runs)
    missed, ran, executable, fired = [], [], 0, 0
    for path, units in package_units().items():
        file_missed, file_ran = unrun(units, lines.get(path, set()),
                                      lambdas.get(path, set()))
        missed += file_missed
        ran += file_ran
        code_lines = _executable_lines(path)
        executable += len(code_lines)
        fired += len(code_lines & lines.get(path, set()))
    failures = gate(missed, ran, read_allowed())
    for failure in failures:
        print(failure)
    print(f"reach: {len(ran)} of {len(ran) + len(missed)} statements and lambdas "
          f"of src/largequot/ ran ({fired} of {executable} executable lines); "
          f"{len(missed)} never ran, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
