"""catalog: one in-process `wucalc fixtures` call.

Betti vectors by exact derivative rank, Wu characteristics and the
Euler-Poincare check for every ungated MAIN_TABLE row and the PAIR_TABLE.
The work is basis enumeration, derivative assembly and rank; kernel,
Laplacian and numeric code do nothing here. The inputs are the pinned
tables, so the seed does not change them.
"""

from __future__ import annotations

import re

from common import call_main, same_betti

ROW = re.compile(r"^\s+(PASS|FAIL) (\S+) (?:k=(\d+) )?wu=(-?\d+) "
                 r"betti=\[([-\d, ]*)\]")


def _gated(catalog, key):
    # The oversize guard: a gated row (four_sphere k=3 has 4.58 M tuples,
    # about 3 GB before elimination) is never run by this benchmark.
    return any(key in rows for rows in catalog.GATES.values())


def setup(seed, index, workdir, tr):
    from wucalc import catalog, cli
    return {"cli": cli, "catalog": catalog}


def expected(catalog):
    rows = {}
    for (name, k), (wu, betti) in catalog.MAIN_TABLE.items():
        if not _gated(catalog, (name, k)):
            rows[(name, k)] = (wu, list(betti))
    for name, _, _, wu, betti, _ in catalog.PAIR_TABLE:
        rows[(name, None)] = (wu, list(betti))
    return rows


def run(st, speed):
    _, rc, out, err, exc = call_main(st["cli"].main, ["fixtures"])
    rows = {}
    for line in out.splitlines():
        m = ROW.match(line)
        if m:
            key = (m.group(2), int(m.group(3)) if m.group(3) else None)
            betti = [int(x) for x in m.group(5).split(",") if x.strip()]
            rows[key] = (int(m.group(4)), betti)
    last = out.splitlines()[-1] if out else ""
    return {"rows": rows, "rc": rc, "summary": last, "exc": exc}


def trace(st, tr):
    """Replay cmd_fixtures row by row: build the complex, then basis,
    derivative, rank and Wu characteristic each in its own span."""
    from wucalc.cohomology import cohomology_data, euler_poincare_check
    from wucalc.ring import ring_betti, ring_wu
    from wucalc.simplicial import Complex

    from common import fill_stages

    catalog = st["catalog"]
    rows = {}
    for (name, k) in sorted(catalog.MAIN_TABLE):
        if _gated(catalog, (name, k)):
            continue
        tr.job = f"{name} k={k}"
        with tr.span("job"):
            c = tr.call("simplicial.build", catalog.NAMED[name])
            tr.count("simplicial.cells", len(c.cells))
            data = cohomology_data(tuple([c] * k))
            if isinstance(c, Complex):
                fill_stages(tr, data, betti=True)
                tr.call("basis.wu", getattr, data, "wu")
                res = tr.call("cohomology.check", euler_poincare_check, c, k)
                rows[(name, k)] = (res["wu"], list(res["betti"]))
            else:
                wu = tr.call("basis.wu", ring_wu, c, k)
                fill_stages(tr, data, betti=True)
                betti = tr.call("ring.betti", ring_betti, c, k)
                rows[(name, k)] = (wu, list(betti))
    tr.job = "pairs"
    with tr.span("job"):
        pairs = tr.call("simplicial.build", catalog.pair_fixtures)
    for name, g, h, _, _, _ in pairs:
        tr.job = name
        with tr.span("job"):
            tr.count("simplicial.cells", len(g.cells) + len(h.cells))
            fill_stages(tr, cohomology_data((g, h)), betti=True)
            res = tr.call("cohomology.check", euler_poincare_check, [g, h], 2)
            rows[(name, None)] = (res["wu"], list(res["betti"]))
    tr.job = None
    n = len(rows)
    return {"rows": rows, "rc": 0,
            "summary": f"{n} fixtures run, 0 failed", "exc": None}


def check(st, outcome):
    """Every expected row must be reported with its pinned Wu number and
    Betti vector, and the command must exit 0 with a clean summary line."""
    want = expected(st["catalog"])
    wrong = []
    for key, (wu, betti) in sorted(want.items(), key=str):
        got = outcome["rows"].get(key)
        if got is None or got[0] != wu or not same_betti(got[1], betti):
            wrong.append(f"row {key}: got {got}, want {(wu, betti)}")
    extra = set(outcome["rows"]) - set(want)
    wrong += [f"unexpected row {key}" for key in sorted(extra, key=str)]
    summary_ok = outcome["summary"] == f"{len(want)} fixtures run, 0 failed"
    if outcome["exc"] or outcome["rc"] != 0 or not summary_ok:
        wrong.append(f"fixtures exit {outcome['rc']}, {outcome['exc']}, "
                     f"summary {outcome['summary']!r}")
    return {"attempted": len(want), "failed": min(len(wrong), len(want)),
            "wrong": wrong, "counts": {"cli.requests": 1}}
