"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU cloud container the CPU speed drifts by 20-40 % over
tens of seconds.  A fixed pure-Python loop, timed every REFERENCE_EVERY_S
between operations, follows that drift: over one minute, the 3-second
medians of a few-millisecond certify operation varied by 15 %, and their
ratio to the loop's time by 3 %.  Over six certify runs on a busy host,
the median operation time spread by 30 % unscaled, by 10 % scaled by a
loop over a small dict and by 7 % scaled by this loop, which also reads
memory (interquartile range over median); the 90th percentile spread by
26 %, 11 % and 6 %.  Every reported time is scaled to a machine on which
the loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / (loop time around the measurement)

A change to the package moves the measured time and not the loop, so it
shows in full; a slower or busier machine moves both and cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

REFERENCE_S = 1e-3
REFERENCE_EVERY_S = 0.01
# loop samples within this distance of an operation set its scale
REFERENCE_WINDOW_S = 0.25


# 16 MB of 64-bit zeros, read at random by the reference loop; made on
# first use, so that a set-up probe never pays for it
_TABLE = []


def reference_loop():
    """Time one run of the fixed reference loop (about 1 ms).

    The loop reads a 16 MB table at pseudo-random places, so that it
    slows down with the memory system, as the package's operations do
    when a neighbour on the host contends for the cache, and not only
    with the interpreter.  It allocates no object that the cyclic garbage
    collector tracks, so taking a sample never moves the point at which
    the collector next runs: its pauses fall on the same operations in
    every run of a seed, however many samples the run happens to take.
    """
    if not _TABLE:
        _TABLE.append(array("q", bytes(8 << 21)))
    table = _TABLE[0]
    j = acc = 0
    t0 = time.perf_counter()
    for _ in range(3000):
        j = (j * 1103515245 + 12345) & 0x1FFFFF
        acc += table[j]
    return time.perf_counter() - t0


class SpeedLog:
    """Reference-loop samples over a run, and the scale they give."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self):
        self.at.append(time.perf_counter())
        self.took.append(reference_loop())

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Factor turning a time measured in [start, end] into reference
        time: REFERENCE_S over the median loop time near that interval."""
        lo = bisect.bisect_left(self.at, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REFERENCE_WINDOW_S)
        near = self.took[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            near = [self.took[i]]
        return REFERENCE_S / statistics.median(near)

    def run_scale(self):
        """One factor for a whole run: REFERENCE_S over the median loop."""
        return REFERENCE_S / statistics.median(self.took)
