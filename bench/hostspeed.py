"""Host-speed correction for op timings.

On a small shared VM the same op can run 1.6 to 2 times slower for
stretches of ten seconds to a minute, because the host is busy.  One run
of the benchmark lasts about as long as such a stretch, so its raw times
say as much about the host as about the program.

`HostSpeed` runs a fixed reference computation between ops, every
`EVERY_S` seconds of op time, and scales each op's wall time by
`NOMINAL_S / local reference time`.  The local reference time is the
median of the probes nearest the op.  A corrected time therefore reads
as the op's time on a host where the reference takes exactly
`NOMINAL_S`.  The reference does not touch the package, so a change to
the program cannot move it; it mixes the kinds of work the workloads do
(exact `Fraction` elimination, set-based graph walks and small numpy
linear algebra).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# A fixed convention: near the probe's median time on the 2-vCPU 2.1 GHz
# Xeon VM used to tune the benchmark, where it ranged from 19 to 42 ms.
NOMINAL_S = 0.030
EVERY_S = 0.25  # op time between probes
NEAREST = 3  # probes on each side of an op that set its correction

_rng = random.Random(1206)
_MATRIX = [
    [Fraction(_rng.randint(1, 50), _rng.randint(1, 50)) for _ in range(9)] for _ in range(8)
]
_ADJ = {v: set() for v in range(15)}
for _a, _b in _rng.sample([(i, j) for i in range(15) for j in range(i + 1, 15)], 26):
    _ADJ[_a].add(_b)
    _ADJ[_b].add(_a)
_SQUARE = np.array([[_rng.random() for _ in range(6)] for _ in range(6)])


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    for c in range(8):
        pivot = rows[c][c]
        for r in range(8):
            if r != c:
                f = rows[r][c] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows[0][8]


def _simple_paths(start):
    count, on_path = 0, {start}

    def walk(v):
        nonlocal count
        for nxt in sorted(_ADJ[v]):
            if nxt not in on_path:
                count += 1
                on_path.add(nxt)
                walk(nxt)
                on_path.discard(nxt)

    walk(start)
    return count


def reference():
    """20 to 40 ms of work that never changes."""
    for _ in range(4):
        _eliminate()
    for start in range(4):
        _simple_paths(start)
    for _ in range(300):
        np.linalg.eigvals(_SQUARE @ _SQUARE.T + np.eye(6))


def probe_seconds(count):
    """Wall times of `count` reference runs."""
    times = []
    for _ in range(count):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return times


class HostSpeed:
    """Reference probes taken during a timed phase, keyed by the op time
    that had elapsed when each ran."""

    def __init__(self):
        self.clocks = []
        self.seconds = []

    def due(self, clock):
        return not self.clocks or clock - self.clocks[-1] >= EVERY_S

    def probe(self, clock):
        self.seconds += probe_seconds(1)
        self.clocks.append(clock)

    def current(self):
        """NOMINAL_S over the median of the latest probes."""
        return NOMINAL_S / statistics.median(self.seconds[-2 * NEAREST:])

    def factors(self, clocks):
        """For each clock in a sorted array, NOMINAL_S over the median of
        the probes nearest it."""
        per_gap = np.array([
            NOMINAL_S / statistics.median(self.seconds[max(0, j - NEAREST): j + NEAREST])
            for j in range(len(self.clocks) + 1)
        ])
        return per_gap[np.searchsorted(self.clocks, clocks, side="left")]
