"""wucalc benchmark.

    python3 perfbench/run.py --workload catalog|hodge|cli-small|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in fresh worker
processes (cold caches; peak memory belongs to that workload), with
BLAS/OpenMP pinned to one thread and WUCALC_THREADS unset. Workers repeat
until --seconds of measured time have been spent, but a worker that would
overrun --seconds by more than half is not started, so a workload whose
worker takes longer than that runs once. Every output is checked outside
the timed region.

--trace 0 prints the end-to-end metrics: median pass time, median set-up
time over several fresh processes, median peak RSS, and the median and
99th-percentile request latency pooled over the run's workers. Pass and
request times are scaled to a reference speed read in the same thread
while they run (see reference.py); set-up time is not.
--trace 1 runs a traced replay of the jobs and, beside it, an untraced pass
of the same inputs for the program's own cache counts. It prints the
per-layer metrics, the share of traced wall time the layer spans cover,
and the tracing overhead estimated from the number of spans; the spans are
written to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output was
right, 1 when some output was wrong, and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata

from reference import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog", "hodge", "cli-small")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
}

PER_LAYER = {
    "simplicial.build_s": "s",
    "simplicial.cells": "count",
    "basis.build_s": "s",
    "basis.wu_s": "s",
    "basis.tuples": "count",
    "basis.peak_mb": "MB",
    "differential.derivative_s": "s",
    "differential.d_nnz": "count",
    "differential.peak_mb": "MB",
    "differential.d_squared_s": "s",
    "differential.laplacian_s": "s",
    "differential.laplacian_nnz": "count",
    "exact.rank_s": "s",
    "exact.rank_calls": "count",
    "exact.rank_sum": "count",
    "exact.lap_rank_s": "s",
    "exact.kernel_s": "s",
    "exact.kernel_vectors": "count",
    "exact.kernel_max_abs": "count",
    "exact.det_s": "s",
    "cohomology.cache_hit_ratio": "hits/lookups",
    "cohomology.cache_lookups": "count",
    "lefschetz.automorphisms_s": "s",
    "lefschetz.project_s": "s",
    "lefschetz.fixed_s": "s",
    "lefschetz.automorphisms": "count",
    "lefschetz.fixed_tuples": "count",
    "dynamics.spectra_s": "s",
    "dynamics.zero_mode_mismatches": "count",
    "dynamics.lax_s": "s",
    "dynamics.lax_steps": "count",
    "dynamics.lax_max_drift": "abs",
    "ring.betti_s": "s",
    "connection.fredholm_s": "s",
    "cli.argparse_s": "s",
    "cli.load_s": "s",
    "cli.requests": "count",
    "cli.exit1": "count",
    "cli.uncaught": "count",
    "trace.wall_s": "s",
    "trace.coverage": "%",
    "trace.overhead_s": "s",
}

# Fresh processes that only set up, so setup_s is a median even when one
# pass fills the run.
SETUP_PROBES = 5
# One deadline for the whole invocation, inside the 180 s a single
# benchmark run may take.
RUN_LIMIT_S = 170.0

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def worker_env():
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env.pop("WUCALC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, jobs, seed, workdir, deadline):
    """Start one worker per (mode, index) in `jobs` at the same time, wait
    for all of them, and return their results in the same order. A worker
    still running at the deadline or on an error is killed and waited for."""
    procs = []
    try:
        for mode, index in jobs:
            out = os.path.join(workdir, f"{mode}-{index}.json")
            errors = open(os.path.join(workdir, f"{mode}-{index}.err"), "w+",
                          encoding="utf-8")
            spawned = time.perf_counter()
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", workload, "--mode", mode,
                   "--seed", str(seed), "--index", str(index),
                   "--spawned", repr(spawned),
                   "--workdir", os.path.join(workdir, f"{mode}-{index}"),
                   "--out", out]
            proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                    stdout=subprocess.DEVNULL, stderr=errors)
            procs.append((mode, proc, out, errors))
        results = []
        for mode, proc, out, errors in procs:
            try:
                proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} {mode} process hit the time "
                                 f"limit")
            if proc.returncode != 0:
                errors.seek(0)
                tail = "\n".join(errors.read().strip().splitlines()[-5:])
                raise BenchError(f"{workload} {mode} process exited "
                                 f"{proc.returncode}:\n{tail}")
            with open(out, encoding="utf-8") as fh:
                results.append(json.load(fh))
        return results
    finally:
        for _, proc, _, errors in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            errors.close()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


def run_workload(workload, seed, seconds, trace, deadline):
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    try:
        if trace:
            # The untraced pass only supplies the program's own cache
            # counts, so it runs beside the traced one.
            plain, traced = spawn(workload, [("pass", 0), ("trace", 0)],
                                  seed, workdir, deadline)
            return summarize_trace(workload, seed, plain, traced)
        setups = [spawn(workload, [("setup", i)], seed, workdir, deadline)[0]
                  ["setup_s"] for i in range(SETUP_PROBES)]
        passes = []
        measured = 0.0
        while True:
            t = time.perf_counter()
            passes += spawn(workload, [("pass", len(passes))], seed, workdir,
                            deadline)
            last = passes[-1]["measured_s"]
            measured += last
            cost = time.perf_counter() - t
            if (measured >= seconds or measured + last > 1.5 * seconds
                    or time.perf_counter() + cost > deadline):
                break
        return summarize(workload, setups, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _verdict(passes):
    mishandled = Counter()
    for p in passes:
        mishandled.update(p.get("mishandled", {}))
    return {
        "correct": all(not p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "wrong": [w for p in passes for w in p["wrong"]],
        "mishandled": mishandled,
    }


def summarize(workload, setups, passes):
    lat = sorted(x for p in passes for x in p["latencies_ms"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "request_p50_ms": percentile(lat, 50),
        "request_p99_ms": percentile(lat, 99),
    }
    res = _verdict(passes)
    res.update({"workload": workload, "passes": len(passes),
                "requests": len(lat), "setup_samples": len(setups) + len(passes),
                "metrics": metrics, "units": END_TO_END})
    if "reference_ms" in passes[0]:
        res["scaled"] = (
            statistics.median(p["raw_wall_s"] for p in passes),
            statistics.median(p["reference_ms"] for p in passes))
    return res


def summarize_trace(workload, seed, plain, traced):
    layers = traced["layers"]
    metrics = {name: layers.get(name, 0) for name in PER_LAYER}
    metrics.update({k: v for k, v in traced["counts"].items()
                    if k in PER_LAYER})
    hits, misses = plain["cache"]
    lookups = hits + misses
    metrics["cohomology.cache_lookups"] = lookups
    metrics["cohomology.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "spans": traced["spans"]}, fh)
    res = _verdict([plain, traced])
    res.update({"workload": workload, "passes": 2, "metrics": metrics,
                "units": PER_LAYER, "trace_file": os.path.relpath(path, ROOT)})
    return res


def provenance():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"# nproc {os.cpu_count()}; cpu {cpu}; python "
            f"{platform.python_version()}; numpy {numpy_version}; "
            f"{'/'.join(PINNED_THREADS)}=1; WUCALC_THREADS unset "
            f"(was {os.environ.get('WUCALC_THREADS', 'unset')})")


def report(res):
    print(f"workload {res['workload']}: {res['passes']} worker(s)"
          + (f", {res['requests']} requests, {res['setup_samples']} set-ups"
             if "requests" in res else ""))
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {res['units'][name]}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'fail_ratio':32s} {ratio:>16.6g} failed/attempted "
          f"({res['failed']}/{res['attempted']})")
    if "scaled" in res:
        raw, ref = res["scaled"]
        print(f"  times scaled to reference speed: the reference task took "
              f"{ref:.3f} ms against {NOMINAL_S * 1000:g} ms nominal; "
              f"unscaled wall_s {raw:.6g} s")
    if "trace_file" in res:
        cover = res["metrics"]["trace.coverage"]
        print(f"  layer spans cover {cover:.1f}% of the traced wall time; "
              f"tracing overhead about {res['metrics']['trace.overhead_s']:.3f}"
              f" s (spans x calibrated cost of one span); spans in "
              f"{res['trace_file']}")
    for why, n in sorted(res["mishandled"].items()):
        print(f"  malformed request mishandled {n}x: {why}")
    for w in res["wrong"][:10]:
        print(f"  WRONG {w}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wucalc", "__init__.py")):
        print("perfbench: src/wucalc not found; run from a wucalc checkout",
              file=sys.stderr)
        return 2
    print(provenance(), flush=True)
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    deadline = time.perf_counter() + RUN_LIMIT_S
    results = []
    try:
        for name in names:
            res = run_workload(name, a.seed, a.seconds, bool(a.trace),
                               deadline)
            report(res)
            sys.stdout.flush()
            results.append(res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": res["units"][name]}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
