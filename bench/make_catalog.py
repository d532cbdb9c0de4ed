"""Regenerate catalog.json, the labelled input pools of certify and avoid.

Draws CERTIFY_DRAWS certification requests and AVOID_DRAWS avoidance word
sets from the workload generators with a fixed catalog seed, runs each
distinct one once through the package (with the benchmark's enumeration
cap) and records its outcome, its time and its work: the witness order or
the kind of honest negative of a certification request, the bound M of a
word set; the seconds it took (a certification request with its JSON round
trip and verification, as the benchmark runs it), the largest unit-image
quotient it needs, how many enumerations the cap stops and how many
relator letters it rewrites.  Every distinct request is kept
with the number of times the generator drew it, so the catalog is the
generator's whole labelled stream and its natural mix can be read back from
it.  ``workloads.certify_stratum`` and ``workloads.avoid_stratum`` sort the
requests into strata of similar cost, or name why a request belongs to
none; the share of every stratum and of every dropped class is printed.
The labels describe the program this catalog was made with; the benchmark
reports the strata it actually observes next to its metrics.

    python3 bench/make_catalog.py

takes about ten minutes on a 2-vCPU container and rewrites
bench/catalog.json.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import largequot as lq  # noqa: E402
from largequot import largeness  # noqa: E402
import workloads as wl  # noqa: E402

CERTIFY_DRAWS = 4000
AVOID_DRAWS = 3000
# a request slower than this is recorded with the outcome "timeout"
TIME_LIMIT_S = 30


class _TimeLimit(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeLimit()


class _Work:
    """Largest unit-image quotient a request needs, how many of its
    enumerations the cap stops, and how many relator letters it rewrites.
    Memo hits count like the enumeration they stand for, so the record is
    the request's work from an empty memo."""

    def __init__(self):
        self.largest = self.capped = self.letters = 0
        self._unit_quotient = largeness._unit_quotient
        largeness._unit_quotient = self._counted
        self._rewrite = largeness.reidemeister_schreier
        largeness.reidemeister_schreier = self._rewritten

    def _counted(self, *args, **kwargs):
        try:
            quotient = self._unit_quotient(*args, **kwargs)
        except lq.CapExceeded:
            self.capped += 1
            raise
        self.largest = max(self.largest, quotient.order)
        return quotient

    def _rewritten(self, quotient, relators):
        self.letters += sum(len(w) for w in relators)
        return self._rewrite(quotient, relators)

    def reset(self):
        self.largest = self.capped = self.letters = 0


def _certify_label(words, q, work):
    """Witness order or honest negative of one request, run as the
    benchmark runs it: certify, JSON round trip, verify.  Only the
    certification counts as the request's work."""
    try:
        cert = lq.certify_power_quotient(words, q, enum_cap=wl.ENUM_CAP)
    except lq.BelowBoundError:
        return "below-bound"
    except lq.CapExceeded:
        return "cap-negative"
    counted = work.largest, work.capped, work.letters
    lq.verify_certificate(json.loads(json.dumps(cert, sort_keys=True)),
                          enum_cap=wl.ENUM_CAP)
    work.largest, work.capped, work.letters = counted
    return cert["counts"]["j"]


def _avoid_label(words, m, work):
    try:
        return lq.lemma_fi_bound(words, m, enum_cap=wl.ENUM_CAP).M
    except lq.CapExceeded:
        return "cap-negative"


KINDS = {
    "certify": (CERTIFY_DRAWS, wl.certify_request, _certify_label, "q"),
    "avoid": (AVOID_DRAWS, wl.avoid_instance, _avoid_label, "m"),
}


def labelled(kind, work):
    """Every distinct request of the kind's catalog stream, with its draw
    count, outcome and work."""
    draws, generate, label, param_key = KINDS[kind]
    rng = random.Random(f"{kind}-catalog")
    entries = {}
    for n in range(draws):
        words, param = generate(rng)
        key = (tuple(words), param)
        if key in entries:
            entries[key]["draws"] += 1
            continue
        work.reset()
        signal.alarm(TIME_LIMIT_S)
        t0 = time.perf_counter()
        try:
            outcome = label(wl.words_of(words), param, work)
        except _TimeLimit:
            outcome = "timeout"
        finally:
            signal.alarm(0)
        entries[key] = {
            "words": words, param_key: param, "draws": 1, "outcome": outcome,
            "largest": work.largest, "capped": work.capped,
            "letters": work.letters,
            "seconds": round(time.perf_counter() - t0, 6),
        }
        if (n + 1) % 250 == 0:
            print(f"{kind}: {n + 1} draws", file=sys.stderr, flush=True)
    return list(entries.values())


def print_shares(kind, entries):
    """Share of the draws in each stratum and dropped class, with the
    median and largest time of a request in it."""
    classify = wl.certify_stratum if kind == "certify" else wl.avoid_stratum
    seconds = {name: [] for name in wl.WORKLOADS[kind].quotas}
    draws = dict.fromkeys(seconds, 0)
    for entry in entries:
        name = classify(entry)
        draws[name] = draws.get(name, 0) + entry["draws"]
        seconds.setdefault(name, []).append(entry["seconds"])
    total = sum(draws.values())
    for name in sorted(draws, key=lambda s: (s.startswith("dropped"), s)):
        times = seconds[name] or [0.0]
        print(f"{kind:8s} {name:32s} share {draws[name] / total:7.4f}  "
              f"distinct {len(seconds[name]):5d}  "
              f"median {statistics.median(times):7.3f} s  "
              f"max {max(times):7.3f} s")


def write_catalog(catalog):
    """One request per line, so that the file diffs line by line."""
    with open(wl.CATALOG_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for i, kind in enumerate(sorted(catalog)):
            handle.write(f'"{kind}": [\n')
            lines = [json.dumps(e, sort_keys=True) for e in catalog[kind]]
            handle.write(",\n".join(lines))
            handle.write("\n]" + (",\n" if i < len(catalog) - 1 else "\n"))
        handle.write("}\n")


def main():
    signal.signal(signal.SIGALRM, _alarm)
    work = _Work()
    catalog = {kind: labelled(kind, work) for kind in KINDS}
    write_catalog(catalog)
    for kind, entries in catalog.items():
        print_shares(kind, entries)


if __name__ == "__main__":
    main()
