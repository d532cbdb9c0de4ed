"""Benchmark for largequot: one workload, one seed, one process.

    python3 bench/run.py --workload certify|avoid|verbal --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it reports the workload's input properties, output digest and the
end-to-end times before scaling (``unscaled``).

Every time in the metrics except ``setup_s`` is in reference seconds: the
measured time scaled by the machine-speed reference of ``speed.py``, so
that the host's drifting CPU speed cancels out.  ``unscaled`` gives the
same figures in wall-clock seconds, so that a claimed gain can be checked
against them.

``--trace 0`` runs a fixed number of whole blocks: as many as take
``--seconds`` at the workload's nominal block time (``block_seconds``,
measured on a 2-vCPU container), and at least MIN_OPS operations.  The work
is fixed rather than the time, so a run's cost mix, and with it every
metric, does not depend on how fast the machine happened to be.  The run
reports the end-to-end metrics; ``setup_s`` is the median over
SETUP_PROBES fresh processes of the CPU time each spends from its start to
its inputs being ready (interpreter start, the package and sympy import,
input generation).  CPU time leaves out the scheduling waits of a shared
host, and repeated more closely between runs than the wall-clock time of
the same probes, scaled or not; the wall-clock median is in ``unscaled``.

``--trace 1`` runs a fixed number of blocks (TRACE_BLOCKS) twice: once
untraced in a child process and once traced in this one, and reports the
per-layer metrics, the traced and untraced throughput and their ratio.  The
block count is fixed so that every count repeats exactly for a seed.  Spans
are written to ``bench/out/spans-<workload>-<seed>.{bin,json}``.

End-to-end metrics: ``ops_per_s``, completed operations per second of
operation time over the whole run; ``latency_p50_ms`` and
``latency_p90_ms`` over every attempted operation, a failed one with the
time it took;
``completed_ratio``, one minus the failed share (an end-to-end metric has
to stay above 0, which a failed share does not); ``setup_s``; and
``peak_rss_mb``, the process's peak resident memory.

An operation fails when it raises anything other than an honest negative,
or when its output check fails.  ``correct`` is false when an output check
fails, or when the documents of a unit (one request, or one avoidance word
set with its searches) differ from the digest recorded for that unit in
``digests.json``, or when no digest is recorded for a unit the run drew.
Every unit of every pool is recorded, so every seed is checked in full.
A crash is no wrong answer: the verbal workload's rank-1 driver requests
hit a known RecursionError and count as failed while ``correct`` stays
true; a unit with a failed operation has no digest.

``--pool 1`` runs every unit of the workload's pool once, in pool order,
and writes the unit digests to ``bench/out/digests-<workload>.json``;
``selfcheck.py --record`` gathers them into ``digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

MIN_OPS = 100
SETUP_PROBES = 7
TRACE_BLOCKS = {"certify": 1, "avoid": 2, "verbal": 1}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "completed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="largequot benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("certify", "avoid", "verbal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fixed number of untraced blocks (the traced run's
    # reference), the whole pool once (to record its digests), or a set-up
    # probe that exits once the inputs exist
    parser.add_argument("--blocks", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--pool", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "largequot", "__init__.py")):
        sys.exit(f"bench: no package at {SRC}/largequot; run from a checkout")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def _setup_seconds(args):
    """Median CPU seconds from starting a fresh process to its inputs being
    ready, and the median wall-clock seconds of the same probes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        word, _, seconds = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            sys.exit(f"bench: set-up probe failed with code {proc.returncode}")
        cpu.append(float(seconds))
        wall.append(t1 - t0)
    return statistics.median(cpu), statistics.median(wall)


def _run_blocks(wl, workload, blocks, tracer=None):
    """Execute the blocks in order.

    Returns the operations, their documents (None for a crashed one), the
    start and end of each, its latency in reference seconds, whether each
    succeeded, the output-check problems and the speed log.
    """
    ops, docs, spans, ok, problems = [], [], [], [], []
    state = {}
    log = speed.SpeedLog()
    for block in blocks:
        for op in block:
            log.maybe_sample()
            if tracer is not None:
                tracer.request_id = len(ops)
                depth = tracer.open_request(f"request.{op[0]}")
            error = None
            t0 = time.perf_counter()
            try:
                result = workload.execute(op, state)
            except wl.HONEST_NEGATIVES as exc:
                result = {"negative": type(exc).__name__, "error": str(exc)}
            except Exception as exc:  # a crash is a failed operation
                result, error = None, exc
            spans.append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.close_request(depth)
                tracer.paused = True
            ops.append(op)
            if error is not None:
                print(f"bench: {op!r} raised {error!r}", file=sys.stderr)
                docs.append(None)
                ok.append(False)
            else:
                found, doc = workload.check(op, result, state)
                if found:
                    problems.append(f"{op!r}: {'; '.join(found)}")
                docs.append(doc)
                ok.append(not found)
            if tracer is not None:
                tracer.paused = False
    log.sample()
    latencies = [(t1 - t0) * log.scale(t0, t1) for t0, t1 in spans]
    return ops, docs, spans, latencies, ok, problems, log


def _unit_digests(wl, units, docs):
    """Digest of each unit's documents, None for a unit with a failed
    operation, so that a later fix that makes one complete does not count
    as a moved number."""
    digests, i = [], 0
    for unit in units:
        unit_docs = docs[i:i + len(unit)]
        i += len(unit)
        failed = any(d is None for d in unit_docs)
        digests.append(None if failed else wl.digest(unit_docs))
    return digests


def _check_digests(wl, workload_name, units, digests):
    """Units whose digest moved from, or is missing in, the record."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle).get(workload_name, {})
    moved, missing = [], []
    for unit, found in zip(units, digests):
        key = wl.unit_key(unit)
        if key not in recorded:
            missing.append(key)
        elif None not in (found, recorded[key]) and found != recorded[key]:
            moved.append(key)
    return moved, missing


def _write_pool_digests(wl, workload_name, units, digests):
    os.makedirs(OUT_DIR, exist_ok=True)
    table = {wl.unit_key(u): d for u, d in zip(units, digests)}
    path = os.path.join(OUT_DIR, f"digests-{workload_name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, sort_keys=True)


def _quantile_ms(latencies, q):
    return 1000 * statistics.quantiles(latencies, n=100,
                                       method="inclusive")[q - 1]


def _emit(report, correct, attempted, failed, metrics, units):
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _measure(args, wl, workload, blocks, tracer=None):
    """Run the blocks and gather what both modes report."""
    # Set-up objects (sympy, the catalog, the inputs) never become garbage;
    # freezing them keeps full collections during the run from rescanning
    # them, which would add pauses unrelated to the operation being timed.
    gc.collect()
    gc.freeze()
    units = [unit for block in blocks for unit in block]
    flat = [[op for unit in block for op in unit] for block in blocks]
    ops, docs, spans, latencies, ok, problems, log = _run_blocks(
        wl, workload, flat, tracer)
    digests = _unit_digests(wl, units, docs)
    moved = missing = []
    if args.pool:
        _write_pool_digests(wl, args.workload, units, digests)
    else:
        moved, missing = _check_digests(wl, args.workload, units, digests)
    for line in problems[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    if moved:
        print(f"bench: documents moved for {len(moved)} units: {moved[:5]}",
              file=sys.stderr)
    if missing:
        print(f"bench: no digest recorded for {len(missing)} units: "
              f"{missing[:5]}; rerun selfcheck.py --record", file=sys.stderr)
    # throughput over the whole run: the run, unlike a single block,
    # spans every stratum's cost range the same way for every seed
    raw = [t1 - t0 for t0, t1 in spans]
    completed = ok.count(True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(tracer is not None),
        "blocks": len(blocks),
        "operations": len(ops),
        "input": workload.properties(ops, docs),
        "digest": wl.digest(digests),
        "digests_moved": len(moved),
        "digests_missing": len(missing),
        "check_problems": len(problems),
        "speed_scale": log.run_scale(),
        "unscaled": {
            "ops_per_s": completed / sum(raw),
            "latency_p50_ms": 1000 * statistics.median(raw),
            "latency_p90_ms": _quantile_ms(raw, 90),
        },
    }
    return {
        "report": report,
        "correct": not problems and not moved and not missing,
        "attempted": len(ops),
        "failed": ok.count(False),
        "ops_per_s": completed / sum(latencies),
        "latencies": latencies,
        "scale": log.run_scale(),
    }


def _end_to_end(args, wl, workload, blocks):
    probe = args.blocks or args.pool
    setup_s, setup_wall_s = (None, None) if probe else _setup_seconds(args)
    run = _measure(args, wl, workload, blocks)
    run["report"]["unscaled"]["setup_s"] = setup_wall_s
    lat = run["latencies"]
    metrics = {
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": _quantile_ms(lat, 90),
        "completed_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup_s is None:
        del metrics["setup_s"]
    run["report"]["samples"] = len(lat)
    _emit(run["report"], run["correct"], run["attempted"], run["failed"],
          metrics, END_TO_END_UNITS)
    return 0


def _untraced_reference(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--trace", "0",
           "--blocks", str(TRACE_BLOCKS[args.workload])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: untraced reference run failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _traced(args, wl, workload, blocks):
    import tracing

    reference = _untraced_reference(args)
    tracer = tracing.Tracer()
    tracing.install(tracer, extra_modules=[wl])
    run = _measure(args, wl, workload, blocks, tracer)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}"))
    metrics = tracing.layer_metrics(tracer, run["scale"])
    metrics["largeness.witness_reuse_ratio"] = \
        run["report"]["input"].get("witness_reuse_ratio", 0.0)
    untraced = reference["metrics"]["ops_per_s"]["value"]
    metrics["trace.ops_per_s"] = run["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.overhead_ratio"] = 1 - run["ops_per_s"] / untraced
    run["report"]["spans"] = len(tracer.start)
    correct = run["correct"] and reference["correct"]
    _emit(run["report"], correct, run["attempted"], run["failed"], metrics,
          tracing.UNITS)
    return 0


def main(argv=None):
    args = _parse_args(argv)
    wl = _import_package()
    workload = wl.WORKLOADS[args.workload](wl.load_catalog())
    if args.pool:
        blocks = [workload.pool_units()]
    else:
        if args.blocks:
            count = args.blocks
        elif args.trace:
            count = TRACE_BLOCKS[args.workload]
        else:
            count = max(round(args.seconds / workload.block_seconds),
                        -(-MIN_OPS // workload.block_ops))
        blocks = workload.blocks(args.seed, count)
    if args.setup_probe:
        print(f"ready {time.process_time()}", flush=True)
        return 0
    if args.trace:
        return _traced(args, wl, workload, blocks)
    return _end_to_end(args, wl, workload, blocks)


if __name__ == "__main__":
    sys.exit(main())
