"""A fixed reference task that reads the host's current speed.

The host this benchmark was written on is shared with other tenants, and
its speed drifts by up to 1.7x over minutes, which is far more than the
per-call costs cli-small is meant to resolve. While a pass runs, the
reference task runs every 0.1 s in the same thread, and the pass's times
are scaled by how long the task took around them.

The task is the benchmark's own code, never wucalc's. Its mix follows
cli-small's: building and running an argparse parser, a JSON round trip,
set and tuple churn like building a small complex, exact Fraction
elimination and a small symmetric eigensolve. It shares the caches and
the allocator with the program, so a program that sweeps a large working
set slows it too; a change that shrinks that working set therefore shows
a little less of its gain than the raw time would.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# Reported times are scaled to the host speed at which the task takes this
# long.
NOMINAL_S = 0.004


def _task():
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for i in range(14):
        p = sub.add_parser(f"cmd{i}", help=f"command {i}")
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("-k", type=int, default=2, help="order")
        p.add_argument("--tol", type=float, default=1e-9, help="tolerance")
    args = parser.parse_args(["cmd7", "in.json", "-k", "3"])
    facets = json.loads(json.dumps([[1, 2, 3], [2, 3, 4], [3, 4, 5],
                                    [1, 5], [4, 6], [5, 6]]))
    cells = sorted({tuple(s) for f in facets for r in range(1, len(f) + 1)
                    for s in itertools.combinations(f, r)},
                   key=lambda s: (len(s), s))
    pairs = [(a, b) for a in cells for b in cells if set(a) & set(b)]
    n = 7
    m = [[Fraction((i * 7 + j * 3 + args.k) % 11 - 5, 1 + (i + j) % 4)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    a = np.array([[float((i * j + len(pairs)) % 5) for j in range(12)]
                  for i in range(12)])
    return np.linalg.eigvalsh(a + a.T)


class Speedometer:
    """Runs the reference task from a SIGALRM handler every `interval`
    seconds while the block runs, in the thread that runs the program, and
    keeps each run's start and duration. `busy` is the total time spent in
    the reference task, which the caller takes out of its own timings."""

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.busy = 0.0
        self._old = None

    def _tick(self, signum, frame):
        # The collector stays off so that the task never collects the
        # program's objects, and its time does not grow with their number.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _task()
        d = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append((t0, d))
        self.busy += d

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self._tick(None, None)

    def scale(self, start=None, end=None):
        """NOMINAL_S over the median reference time of the samples taken
        between start and end, or of all samples when there are none
        there."""
        durations = [d for t, d in self.samples
                     if (start is None or t >= start)
                     and (end is None or t <= end)]
        return NOMINAL_S / statistics.median(
            durations or [d for _, d in self.samples])
