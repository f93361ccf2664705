"""cli-small: a seeded stream of small `wucalc` requests through cli.main.

Fixed per-call costs dominate: argument parsing, JSON I/O, building the
complex, small eigensolves and RK4 steps. A change that speeds up the
large workloads by adding set-up to every call shows up here. Inputs are
random complexes of at most 20 simplices from the criterion-5 generator.
Each request starts as a fresh process would, with an empty cohomology
cache. 2% of requests are malformed and must end with exit code 1 and one
stderr line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

from common import call_main, same_betti

POOL = 200
MALFORMED_EACH = 7
# Size classes (simplices lo, hi, draws) of random_facets(rng,
# max_vertices=6, max_facets=5): how many of 100,000 draws (seeds 1-1000,
# 100 draws each) fell in each class; the full histogram is in
# BASELINE.json. The 21 draws over 20 simplices are never used. The pool
# takes its counts per class in these proportions, so that the few large
# complexes that set the latency tail are as many for every seed; the seed
# only changes which ones run.
SIZE_CLASSES = [(1, 7, 74452), (8, 13, 21897), (14, 15, 2312),
                (16, 17, 962), (18, 20, 356)]
# A request's speed is read from the reference runs (see reference.py)
# within this many seconds of its start.
SCALE_WINDOW_S = 0.5


def class_counts(pool):
    """Counts per size class for a pool of `pool` complexes, by the largest
    remainder of each class's proportional quota."""
    total = sum(draws for _, _, draws in SIZE_CLASSES)
    quotas = [pool * draws / total for _, _, draws in SIZE_CLASSES]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda c: counts[c] - quotas[c])
    for c in by_remainder[:pool - sum(counts)]:
        counts[c] += 1
    return counts


# (kind, argv template); {f} is the request's input file
KINDS = [
    ("betti1", ["betti", "{f}", "-k", "1"]),
    ("betti2", ["betti", "{f}", "-k", "2"]),
    ("betti3", ["betti", "{f}", "-k", "3"]),
    ("wu3", ["wu", "{f}", "-k", "3"]),
    ("fvector", ["fvector", "{f}"]),
    ("fmatrix", ["fmatrix", "{f}"]),
    ("euler-poly", ["euler-poly", "{f}"]),
    ("spectrum2", ["spectrum", "{f}", "-k", "2"]),
    ("deform1", ["deform", "{f}", "-k", "1"]),
    ("lefschetz1", ["lefschetz", "{f}", "-k", "1"]),
    ("fredholm", ["fredholm", "{f}"]),
    ("curvature", ["curvature", "{f}"]),
    ("refine", ["refine", "{f}"]),
]

# Malformed requests. The first four raise ValueError out of cli.main at
# the time this benchmark was written; they stay in the mix so that the
# defect shows in the failure count until the CLI maps them to exit 1.
MALFORMED = [
    ("bad-negative-vertex", ["betti", "{neg}", "-k", "2"]),
    ("bad-k0", ["betti", "{f}", "-k", "0"]),
    ("bad-k-1", ["wu", "{f}", "-k", "-1"]),
    ("bad-dt0", ["deform", "{f}", "-k", "1", "--dt", "0"]),
    ("bad-empty", ["fvector", "{empty}"]),
    ("bad-truncated", ["betti", "{trunc}", "-k", "1"]),
    ("bad-missing", ["curvature", "{missing}"]),
    ("bad-aut", ["lefschetz", "{f}", "-k", "1", "--aut", "[]"]),
]


def setup(seed, index, workdir, tr):
    from oracles import random_facets
    from wucalc import cli
    from wucalc.simplicial import generate_complex

    rng = random.Random(f"cli-small:{seed}:{index}")
    os.makedirs(workdir, exist_ok=True)
    requests = []
    writing = [0.0]

    def write(name, text):
        t0 = time.perf_counter()
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        writing[0] += time.perf_counter() - t0
        return path

    def draw():
        facets = random_facets(rng, max_vertices=6, max_facets=5)
        return facets, len(tr.call("simplicial.build", generate_complex, facets))

    def add(kind, template, facets, paths):
        argv = [a.format(**paths) for a in template]
        requests.append({"kind": kind, "argv": argv, "facets": facets})

    need = class_counts(POOL)
    pool = []
    while any(need):
        facets, size = draw()
        for c, (lo, hi, _) in enumerate(SIZE_CLASSES):
            if lo <= size <= hi and need[c]:
                need[c] -= 1
                path = write(f"c{len(pool)}.json",
                             json.dumps([list(s) for s in facets]))
                pool.append((facets, path))
    for kind, template in KINDS:
        for facets, path in pool:
            add(kind, template, facets, {"f": path})
    for n, (kind, template) in enumerate(MALFORMED * MALFORMED_EACH):
        facets = draw()[0]
        text = json.dumps([list(s) for s in facets])
        bodies = {"f": text, "empty": "[]", "trunc": text[:len(text) // 2],
                  "neg": json.dumps([[0, -1]] + [list(s) for s in facets])}
        used = " ".join(template)
        paths = {key: write(f"{key}{n}.json", body)
                 for key, body in bodies.items() if f"{{{key}}}" in used}
        paths["missing"] = os.path.join(workdir, f"missing{n}.json")
        add(kind, template, facets, paths)
    rng.shuffle(requests)
    return {"cli": cli, "requests": requests, "write_s": writing[0]}


def fresh_start(cohomology_data):
    """Start a request the way a fresh process would: an empty cohomology
    cache, and a garbage collector that does not rescan the objects earlier
    requests and the benchmark itself left behind."""
    cohomology_data.cache_clear()
    gc.collect()
    gc.freeze()


def run(st, speed):
    """One pass over the request stream while `speed`, a
    reference.Speedometer, runs the reference task every 0.1 s. A request's
    latency is its own time, less any reference run inside it, scaled by
    the reference runs around it, so the host's drifting speed cancels out.
    The unscaled pass time is returned beside it."""
    from wucalc.cohomology import cohomology_data

    main = st["cli"].main
    raw = []
    results = []
    hits = misses = 0
    for req in st["requests"]:
        info = cohomology_data.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
        fresh_start(cohomology_data)
        busy, start = speed.busy, time.perf_counter()
        dt, *res = call_main(main, req["argv"])
        raw.append((start, dt - (speed.busy - busy)))
        results.append(res)
    info = cohomology_data.cache_info()
    latencies = [dt * 1000 * speed.scale(start - SCALE_WINDOW_S,
                                         start + SCALE_WINDOW_S)
                 for start, dt in raw]
    return {"latencies_ms": latencies, "wall_s": sum(latencies) / 1000,
            "raw_wall_s": sum(dt for _, dt in raw), "results": results,
            "cache": [hits + info.hits, misses + info.misses]}


# ---------------------------------------------------------------------------
# traced replay: each command as the calls its cmd_* function makes


def _replay_command(args, c, tr):
    from wucalc.basis import (f_tensor, multivariate_euler_polynomial,
                              polynomial_string, wu_characteristic)
    from wucalc.cohomology import (cohomology_data, euler_poincare_check,
                                   normalize_complexes)
    from wucalc.connection import (fermi_characteristic,
                                   fredholm_characteristic,
                                   wu_via_connection_trace)
    from wucalc.dynamics import block_spectra, lax_deform, supersymmetry_gap
    from wucalc.lefschetz import (complex_automorphisms, fixed_tuples,
                                  lefschetz_number)
    from wucalc.simplicial import (barycentric_refinement,
                                   euler_characteristic, euler_curvature,
                                   f_vector, whitney_complex)

    from common import fill_stages

    cmd = args.command
    k = getattr(args, "k", None)
    if cmd == "betti":
        data = cohomology_data(normalize_complexes(c, k))
        fill_stages(tr, data, betti=True)
        tr.call("basis.wu", getattr, data, "wu")
        return tr.call("cohomology.check", euler_poincare_check, c, k)
    if cmd == "wu":
        return {"k": k, "wu": tr.call("basis.wu", wu_characteristic,
                                      normalize_complexes(c, k))}
    if cmd == "fvector":
        with tr.span("simplicial.fvector"):
            return {"f_vector": list(f_vector(c)),
                    "euler_characteristic": euler_characteristic(c)}
    if cmd == "fmatrix":
        return {"k": k, "f_matrix": tr.call("basis.profile", f_tensor, c, k)}
    if cmd == "euler-poly":
        with tr.span("basis.profile"):
            poly = multivariate_euler_polynomial(c, k)
            return {"k": k,
                    "terms": {",".join(str(e) for e in exp): coeff
                              for exp, coeff in sorted(poly.items())},
                    "polynomial": polynomial_string(poly)}
    if cmd == "refine":
        with tr.span("simplicial.refine"):
            refined = barycentric_refinement(c)
            return {"facets": [list(s) for s in refined.facets()]}
    if cmd == "lefschetz":
        autos = tr.call("lefschetz.automorphisms", complex_automorphisms, c)
        tr.count("lefschetz.automorphisms", len(autos))
        data = cohomology_data(tuple([c] * k))
        fill_stages(tr, data, dirac=True, harmonic=True)
        results = []
        for t in autos:
            num = tr.call("lefschetz.project", lefschetz_number, t, c, k)
            fixed = tr.call("lefschetz.fixed", fixed_tuples, t, data.basis)
            tr.count("lefschetz.fixed_tuples", len(fixed))
            local = sum(index for _, index in fixed)
            results.append({"k": k, "lefschetz": num,
                            "fixed_tuples": len(fixed), "index_sum": local,
                            "fixed_point_ok": num == local})
        return {"k": k, "automorphisms": len(results), "results": results}
    if cmd == "spectrum":
        data = cohomology_data(normalize_complexes(c, k))
        fill_stages(tr, data, dirac=True, betti=True)
        with tr.span("dynamics.spectra"):
            spectra = block_spectra(data.dirac, tol=args.tol,
                                    exact_nullities=data.betti)
            gap = supersymmetry_gap(spectra, tol=args.tol)
        return {"k": k, "betti": list(data.betti),
                "spectra": [[float(x) for x in ev] for ev in spectra],
                "supersymmetry": gap}
    if cmd == "deform":
        data = cohomology_data(normalize_complexes(c, k))
        fill_stages(tr, data, dirac=True)
        mode = "complex" if args.complex else "real"
        _, report = tr.call("dynamics.lax", lax_deform, data.dirac,
                            mode=mode, t_max=args.tmax, dt=args.dt)
        report["size"] = data.dirac.size
        return report
    if cmd == "fredholm":
        fredholm = tr.call("connection.fredholm", fredholm_characteristic, c)
        with tr.span("connection.trace"):
            fermi = fermi_characteristic(c)
            trace = wu_via_connection_trace(c)
        wu2 = tr.call("basis.wu", wu_characteristic, normalize_complexes(c, 2))
        return {"fredholm": fredholm, "fermi": fermi,
                "unimodular_ok": fredholm == fermi,
                "connection_trace": trace, "wu_2": wu2,
                "trace_identity_ok": trace == wu2}
    if cmd == "curvature":
        with tr.span("simplicial.curvature"):
            g = c.skeleton_graph()
            curv = {v: euler_curvature(g, v) for v in sorted(g.vertices)}
            total = sum(curv.values())
            chi = euler_characteristic(whitney_complex(g))
        return {"curvature": {str(v): x for v, x in curv.items()},
                "total": total, "whitney_euler_characteristic": chi,
                "gauss_bonnet_ok": total == chi}
    raise ValueError(f"no replay for command {cmd}")


def _replay(cli, argv, tr):
    with tr.span("cli.argparse"):
        args = cli.build_parser().parse_args(argv)
    (path,) = getattr(args, "files", None) or [args.file]
    with tr.span("cli.load"):
        with open(path, encoding="utf-8") as fh:
            data = json.loads(fh.read())
    c = tr.call("simplicial.build", cli.parse_facets_json, data)
    tr.count("simplicial.cells", len(c.cells))
    payload = _replay_command(args, c, tr)
    with tr.span("cli.emit"):
        out = json.dumps(cli.jsonable(payload), indent=2) + "\n"
    return 0, out, "", None


def trace(st, tr):
    from wucalc.cohomology import cohomology_data

    cli = st["cli"]
    results = []
    for i, req in enumerate(st["requests"]):
        fresh_start(cohomology_data)
        tr.job = i
        with tr.span("job"):
            if req["kind"].startswith("bad-"):
                with tr.span("cli.request"):
                    results.append(call_main(cli.main, req["argv"])[1:])
                continue
            try:
                results.append(_replay(cli, req["argv"], tr))
            except Exception as error:  # noqa: BLE001 - counted per request
                results.append((None, "", "", f"{type(error).__name__}: {error}"))
    tr.job = None
    return {"results": results}


# ---------------------------------------------------------------------------
# checks against tests/oracles.py


class _Oracle:
    def __init__(self):
        import oracles
        self.o = oracles
        self.memo = {}

    def _key(self, facets, k, what):
        return (tuple(tuple(f) for f in facets), k, what)

    def betti(self, facets, k):
        key = self._key(facets, k, "betti")
        if key not in self.memo:
            self.memo[key] = self.o.naive_interaction_data([facets] * k)[1]
        return self.memo[key]

    def wu(self, facets, k):
        key = self._key(facets, k, "wu")
        if key not in self.memo:
            self.memo[key] = self.o.naive_wu([facets] * k)
        return self.memo[key]

    def cells(self, facets):
        return self.o.power_cells(facets)

    def profile(self, facets):
        counts = {}
        cells = self.cells(facets)
        for a, b in self.o.common_tuples([cells, cells]):
            key = (len(a) - 1, len(b) - 1)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _verify(kind, facets, p, oracle):
    """True when payload p of a well-formed request matches the oracles."""
    if kind.startswith("betti"):
        k = int(kind[-1])
        return (p["wu"] == oracle.wu(facets, k)
                and same_betti(p["betti"], oracle.betti(facets, k))
                and p["euler_poincare_ok"])
    if kind == "wu3":
        return p["wu"] == oracle.wu(facets, 3)
    cells = oracle.cells(facets)
    if kind == "fvector":
        top = max(len(s) for s in cells)
        fv = [sum(1 for s in cells if len(s) == d + 1) for d in range(top)]
        chi = sum((-1) ** (len(s) - 1) for s in cells)
        return p["f_vector"] == fv and p["euler_characteristic"] == chi
    if kind == "fmatrix":
        prof = oracle.profile(facets)
        return all(p["f_matrix"][i][j] == prof.get((i, j), 0)
                   for i in range(len(p["f_matrix"]))
                   for j in range(len(p["f_matrix"]))) \
            and sum(map(sum, p["f_matrix"])) == sum(prof.values())
    if kind == "euler-poly":
        prof = {f"{i},{j}": n for (i, j), n in oracle.profile(facets).items()}
        return p["terms"] == prof
    if kind == "spectrum2":
        zeros = [sum(1 for x in ev if x == 0.0) for ev in p["spectra"]]
        return (same_betti(p["betti"], oracle.betti(facets, 2))
                and zeros == p["betti"]
                and p["supersymmetry"]["supersymmetric"])
    if kind == "deform1":
        return p["isospectral"] and p["nilpotent"] and p["steps"] > 0
    if kind == "lefschetz1":
        return p["automorphisms"] >= 1 and all(
            r["fixed_point_ok"] for r in p["results"])
    if kind == "fredholm":
        return (p["fredholm"] in (1, -1) and p["unimodular_ok"]
                and p["wu_2"] == oracle.wu(facets, 2)
                and p["trace_identity_ok"])
    if kind == "curvature":
        return p["gauss_bonnet_ok"]
    if kind == "refine":
        # the refinement has one vertex per simplex and the same Euler
        # characteristic
        ref = oracle.cells(p["facets"])
        return (sum(1 for s in ref if len(s) == 1) == len(cells)
                and sum((-1) ** (len(s) - 1) for s in ref)
                == sum((-1) ** (len(s) - 1) for s in cells))
    raise ValueError(kind)


def check(st, outcome):
    oracle = _Oracle()
    wrong = []
    escaped = {}
    failed = exit1 = uncaught = mismatches = steps = 0
    drift = 0.0
    for req, (rc, out, err, exc) in zip(st["requests"], outcome["results"]):
        kind = req["kind"]
        uncaught += exc is not None
        exit1 += rc == 1
        if kind.startswith("bad-"):
            # one line on stderr, exit 1, nothing escaping
            if exc is not None or rc != 1 or len(err.strip().splitlines()) != 1:
                failed += 1
                why = f"{kind}: exit {rc}, {exc or repr(err[-80:])}"
                escaped[why] = escaped.get(why, 0) + 1
            continue
        ok = False
        if exc is None and rc == 0:
            try:
                p = json.loads(out)
                ok = _verify(kind, req["facets"], p, oracle)
                if kind == "spectrum2":
                    zeros = [sum(1 for x in ev if x == 0.0)
                             for ev in p["spectra"]]
                    mismatches += sum(a != b
                                      for a, b in zip(zeros, p["betti"]))
                if kind == "deform1":
                    steps += p["steps"]
                    drift = max(drift, p["spectral_drift"])
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
        if not ok:
            failed += 1
            wrong.append(f"{' '.join(req['argv'])}: exit {rc}, {exc}")
    counts = {"cli.requests": len(outcome["results"]), "cli.exit1": exit1,
              "cli.uncaught": uncaught,
              "dynamics.zero_mode_mismatches": mismatches,
              "dynamics.lax_steps": steps, "dynamics.lax_max_drift": drift}
    return {"attempted": len(outcome["results"]), "failed": failed,
            "wrong": wrong, "counts": counts,
            "mishandled": escaped}
