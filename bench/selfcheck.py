"""Self-check of the benchmark, and the digest record it checks against.

    python3 bench/selfcheck.py [--seed N]

runs every workload twice with ``--trace 1`` on one seed and confirms that
every count metric repeats exactly, that the output digests match, and that
another seed yields a different input stream.  Exit code 0 when all hold.

    python3 bench/selfcheck.py --record

rewrites ``digests.json`` with the document digest of every unit of every
workload's pool, as the current program produces them (about twenty
minutes on a 2-vCPU container).  Every unit a seed can draw is in it, so
``run.py`` checks the documents of every seed against it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("certify", "avoid", "verbal")


def _run(workload, seed, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"selfcheck: {' '.join(cmd)} exited {proc.returncode}")
    report, result = (json.loads(line)
                      for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def _input_streams(seed_a, seed_b):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import workloads as wl

    catalog = wl.load_catalog()
    streams = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(catalog)
        streams[name] = workload.blocks(seed_a, 2) != workload.blocks(seed_b, 2)
    return streams


def check(seed):
    problems = []
    for workload in WORKLOADS:
        runs = [_run(workload, seed, "--trace", "1") for _ in range(2)]
        (report_a, result_a), (report_b, result_b) = runs
        counts = {
            name for name, m in result_a["metrics"].items()
            if m["unit"] == "count"
        }
        for name in sorted(counts):
            a = result_a["metrics"][name]["value"]
            b = result_b["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:8s} {name:28s} {a:>12} {b:>12}  {status}")
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        same = report_a["digest"] == report_b["digest"]
        print(f"{workload:8s} {'digest':28s} {report_a['digest']:>12} "
              f"{report_b['digest']:>12}  {'ok' if same else 'DIFFERS'}")
        if not same:
            problems.append(f"{workload}: digests differ")
        for result in (result_a, result_b):
            if not result["correct"]:
                problems.append(f"{workload}: a run reported correct=false")
    for workload, differs in _input_streams(seed, seed + 1).items():
        print(f"{workload:8s} {'seed ' + str(seed + 1) + ' inputs':28s} "
              f"{'differ' if differs else 'SAME'}")
        if not differs:
            problems.append(f"{workload}: seed {seed + 1} gives the same inputs")
    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)
    return 1 if problems else 0


def record():
    digests = {}
    for workload in WORKLOADS:
        report, _ = _run(workload, 0, "--pool", "1")
        path = os.path.join(HERE, "out", f"digests-{workload}.json")
        with open(path, encoding="utf-8") as handle:
            digests[workload] = json.load(handle)
        print(f"{workload}: {len(digests[workload])} units, "
              f"digest {report['digest']}", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as f:
        f.write("{\n")
        for i, workload in enumerate(sorted(digests)):
            table = digests[workload]
            f.write(f"{json.dumps(workload)}: {{\n")
            f.write(",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}"
                                for k in sorted(table)))
            f.write("\n}" + (",\n" if i < len(digests) - 1 else "\n"))
        f.write("}\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description="benchmark self-check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        return record()
    return check(args.seed)


if __name__ == "__main__":
    sys.exit(main())
