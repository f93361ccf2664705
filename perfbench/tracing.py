"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around the calls it makes into wucalc's
public functions; nothing inside the package is instrumented. Each span
keeps its name, start, end, parent span and the job it belongs to. A
layer's self time is the duration of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, job]
        self.counts = Counter()   # work counters, summed
        self.maxima = {}          # gauges that keep their largest value
        self.job = None
        self.largest = (0, None)  # (tuples, complexes) of the largest basis
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        self.counts[name] += n

    def gauge(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def note_basis(self, tuples, complexes):
        if tuples > self.largest[0]:
            self.largest = (tuples, complexes)

    def self_times(self, since=None):
        """Self time in seconds per span name, for spans starting at or after
        `since` (all spans when None)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if since is None or start >= since:
                out[name] += (end - start) - child[i]
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]


def span_cost(samples=20000):
    """Seconds that one Tracer.call adds around the call it wraps, measured
    on a no-op: the time of `samples` traced no-op calls minus that of as
    many plain ones, divided by `samples`."""
    probe = Tracer()

    def noop():
        pass

    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        probe.call("probe", noop)
    traced = time.perf_counter() - t0
    return max(traced - plain, 0.0) / samples


class NullTracer:
    """Stand-in used by the untraced pass: spans and counters cost nothing
    beyond the call itself."""

    job = None

    @contextmanager
    def span(self, name):
        yield

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def gauge(self, name, value):
        pass

    def note_basis(self, tuples, complexes):
        pass
