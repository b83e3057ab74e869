"""Timing at a reference speed, by a speed probe run around and inside each
timed block.

On a shared host the speed of one core drifts by tens of percent within
seconds, with the load of other tenants: the same `sphere_workflow` call
takes 3.6 s in one pass and 6.6 s two passes later, in one process, with
CPU time equal to wall time throughout.  A `Gauge` times a fixed piece of
interpreter work (the probe) before and after every block it measures,
and every INTERVAL_S inside it from a SIGALRM handler, so that a long call
is gauged at the speed it actually ran at.  The block's wall time, less
the time its probes took, is scaled by REFERENCE_S over the mean probe
time.  The probe is benchmark code: it does the same work on every commit
of the library, so a faster library still reads faster.

The probe does the kind of work the library does (sorted vertex tuples,
face dictionaries, edge sets and fraction-free elimination on a small
integer matrix), so that interference slows the probe and the library
alike.  The process must not use SIGALRM itself; the library does not.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from math import gcd

REFERENCE_S = 0.008  # about the probe's median time on the baseline's 2-core host
INTERVAL_S = 0.2
FACES = 2000
RANK = 24
EXPECTED = 11246  # what `work()` returns; a different value means a broken probe


def work() -> int:
    faces = {}
    for i in range(FACES):
        t = tuple(sorted(((i * 7919) % 211, (i * 104729) % 199, (i * 31) % 193, i % 181)))
        faces[t] = faces.get(t, 0) + 1
    edges = set()
    for t in faces:
        edges.update(itertools.combinations(t, 2))
    rows = [[(i * j + 3) % 17 - 8 for j in range(RANK)] for i in range(RANK)]
    for k in range(RANK - 1):
        pivot = rows[k][k] or 1
        for row in rows[k + 1:]:
            f = row[k]
            if f:
                row[:] = [a * pivot - f * b for a, b in zip(row, rows[k])]
                g = 0
                for a in row:
                    g = gcd(g, a)
                if g > 1:
                    row[:] = [a // g for a in row]
    return len(edges) + len(faces) + sum(1 for row in rows if any(row))


def probe() -> float:
    """Seconds that one run of `work` takes now."""
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"speed probe returned {result}, expected {EXPECTED}")
    return seconds


class Gauge:
    """Measures `with` blocks at the reference speed; see the module text.

    Consecutive blocks share the probe between them.  `history` keeps
    every probe time, for the report."""

    def __init__(self) -> None:
        self.history = [probe()]

    def measure(self) -> "Reading":
        return Reading(self)


class Reading:
    """One block measured by a gauge.  After the block, `seconds` is its
    wall time less the probes run inside it, and `scaled` the same at the
    reference speed.  Both are set also when the block raises."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.samples = [gauge.history[-1]]
        self.inside = 0.0
        self.seconds = self.scaled = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.inside += time.perf_counter() - start

    def __enter__(self) -> "Reading":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()  # after the timer stops, so every tick falls inside
        signal.signal(signal.SIGALRM, self._handler)
        self.seconds = end - self._start - self.inside
        self.samples.append(probe())
        self.gauge.history.extend(self.samples[1:])
        self.scaled = self.seconds * REFERENCE_S / statistics.mean(self.samples)
        return False
