"""One fresh benchmark process: set up one workload, run one pass, check it.

Started by run.py, never by hand. The parent passes the perf_counter value
it read just before starting this process (CLOCK_MONOTONIC, shared by all
processes on Linux), so setup_s counts interpreter start-up, importing
wucalc and preparing the inputs, less the time spent writing request
files. Modes:

  setup  set up and stop (extra set-up samples)
  pass   the end-to-end path, tracing off, with its times scaled to the
         reference speed (see reference.py)
  trace  the traced replay of the same jobs, then a tracemalloc probe

The result is written as JSON to the --out file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {"catalog": "wl_catalog", "hodge": "wl_hodge",
             "cli-small": "wl_cli"}

# Address-space cap: an oversized input ends in MemoryError inside this
# process instead of the kernel's OOM killer picking a victim on the host.
MEMORY_CAP_BYTES = 3 * 2 ** 30


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--mode", choices=["setup", "pass", "trace"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from tracing import NullTracer, Tracer

    wl = importlib.import_module(WORKLOADS[a.workload])
    traced = a.mode == "trace"
    tr = Tracer() if traced else NullTracer()
    st = wl.setup(a.seed, a.index, a.workdir, tr)
    # Writing request files is the benchmark's own I/O, not wucalc's
    # set-up, and on a shared disk its time swings by 5x from run to run.
    result = {"setup_s": time.perf_counter() - a.spawned
              - st.get("write_s", 0.0)}
    if a.mode != "setup":
        from reference import NOMINAL_S, Speedometer
        from wucalc.cohomology import cohomology_data

        t0 = time.perf_counter()
        if traced:
            outcome = wl.trace(st, tr)
        else:
            with Speedometer() as speed:
                outcome = wl.run(st, speed)
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info = cohomology_data.cache_info()
        result.update({
            "wall_s": wall,
            "measured_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "cache": outcome.get("cache", [info.hits, info.misses]),
        })
        if traced:
            result.update(_trace_summary(tr, t0, wall))
        else:
            if "wall_s" not in outcome:
                # a batch pass is one request: its time, less the reference
                # runs, at the reference speed
                outcome["raw_wall_s"] = wall - speed.busy
                outcome["wall_s"] = outcome["raw_wall_s"] * speed.scale()
                outcome["latencies_ms"] = [outcome["wall_s"] * 1000]
            result.update({
                "wall_s": outcome["wall_s"],
                "raw_wall_s": outcome["raw_wall_s"],
                "latencies_ms": outcome["latencies_ms"],
                "reference_ms": 1000 * NOMINAL_S / speed.scale(),
            })
        result.update(wl.check(st, outcome))
        result["wrong"] = result["wrong"][:20]
    with open(a.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _trace_summary(tr, t0, wall):
    from common import memory_probe
    from tracing import span_cost

    self_times = tr.self_times(since=t0)
    spans = sum(1 for span in tr.spans if span[1] >= t0)
    covered = sum(s for name, s in self_times.items() if name != "job")
    basis_mb = deriv_mb = 0.0
    if tr.largest[1] is not None:
        basis_mb, deriv_mb = memory_probe(tr.largest[1])
    layers = {f"{name}_s": s for name, s in tr.self_times().items()}
    layers.update(tr.counts)
    layers.update(tr.maxima)
    layers.update({"basis.peak_mb": basis_mb,
                   "differential.peak_mb": deriv_mb,
                   "trace.wall_s": wall,
                   "trace.overhead_s": spans * span_cost(),
                   "trace.coverage": 100.0 * covered / wall if wall else 0.0})
    return {"layers": layers, "spans": tr.dump()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
