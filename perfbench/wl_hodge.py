"""hodge: the Moebius/cylinder case study and the Hodge route.

The harmonic kernel (Fraction Gauss-Jordan) and Laplacian elimination with
fill-in do almost all of the work; the bases are small (at most 4,160
tuples), so basis and derivative code barely registers. The pass is one
batch request. The seed orders the automorphisms, which leaves the work
unchanged.
"""

from __future__ import annotations

import random

from common import fill_stages

CYLINDER_BETTI = [0, 0, 1, 1, 0]
LEFSCHETZ_K1 = [0] * 8 + [2] * 8
MOEBIUS_DET1 = 2 ** 46 * 3 ** 7 * 5 * 7 ** 3 * 17 ** 7 * 42924041 ** 2
THREE_SPHERE_NULLITIES = [0, 0, 0, 1, 0, 0, 1]
GROUPS = ("cylinder", "moebius", "three_sphere")


def setup(seed, index, workdir, tr):
    from wucalc import catalog

    st = {name: tr.call("simplicial.build", getattr(catalog, name))
          for name in GROUPS}
    tr.count("simplicial.cells", sum(len(st[name].cells) for name in st))
    st["rng"] = random.Random(f"hodge:{seed}:{index}")
    return st


def _zero_counts(spectra):
    return [sum(1 for x in evals if x == 0.0) for evals in spectra]


def run(st, speed):
    from wucalc.cohomology import cohomology_data, laplacian_nullities
    from wucalc.dynamics import block_spectra
    from wucalc.exact import det_bareiss
    from wucalc.lefschetz import (complex_automorphisms,
                                  lefschetz_fixed_point_check)

    res = {}
    for group in GROUPS:
        c = st[group]
        data = cohomology_data((c, c))
        if group == "cylinder":
            res["cyl_nullities"] = laplacian_nullities(data.dirac)
            res["cyl_betti"] = data.betti
            res["harmonic"] = data.harmonic
            res["laplacians"] = data.dirac.laplacian_blocks
            spectra = block_spectra(data.dirac, exact_nullities=data.betti)
            res["zero_counts"] = _zero_counts(spectra)
            autos = complex_automorphisms(c)
            st["rng"].shuffle(autos)
            res["automorphisms"] = len(autos)
            for k in (1, 2):
                res[f"lefschetz{k}"] = [lefschetz_fixed_point_check(t, c, k)
                                        for t in autos]
        elif group == "moebius":
            res["dets"] = [det_bareiss(b.to_dense())
                           for b in data.dirac.laplacian_blocks]
        else:
            res["s3_nullities"] = laplacian_nullities(data.dirac)
    return res


def trace(st, tr):
    """The same jobs with every layer in its own span: stages are filled
    before the call that uses them, so e.g. lefschetz_number runs with the
    harmonic forms already cached and its span is projection time only."""
    from wucalc.cohomology import cohomology_data, laplacian_nullities
    from wucalc.dynamics import block_spectra
    from wucalc.exact import det_bareiss
    from wucalc.lefschetz import (complex_automorphisms, fixed_tuples,
                                  lefschetz_number)

    res = {}
    for group in GROUPS:
        c = st[group]
        data = cohomology_data((c, c))
        tr.job = group
        with tr.span("job"):
            fill_stages(tr, data, dirac=True)
            if group == "cylinder":
                res["cyl_nullities"] = tr.call(
                    "exact.lap_rank", laplacian_nullities, data.dirac)
                fill_stages(tr, data, betti=True, harmonic=True)
                res["cyl_betti"] = data.betti
                res["harmonic"] = data.harmonic
                res["laplacians"] = data.dirac.laplacian_blocks
                spectra = tr.call("dynamics.spectra", block_spectra,
                                  data.dirac, exact_nullities=data.betti)
                res["zero_counts"] = _zero_counts(spectra)
                autos = tr.call("lefschetz.automorphisms",
                                complex_automorphisms, c)
                st["rng"].shuffle(autos)
                tr.count("lefschetz.automorphisms", len(autos))
                res["automorphisms"] = len(autos)
                for k in (1, 2):
                    dk = cohomology_data(tuple([c] * k))
                    fill_stages(tr, dk, dirac=True, harmonic=True)
                    out = []
                    for t in autos:
                        num = tr.call("lefschetz.project",
                                      lefschetz_number, t, c, k)
                        fixed = tr.call("lefschetz.fixed",
                                        fixed_tuples, t, dk.basis)
                        tr.count("lefschetz.fixed_tuples", len(fixed))
                        local = sum(index for _, index in fixed)
                        out.append({"lefschetz": num, "index_sum": local,
                                    "fixed_point_ok": num == local})
                    res[f"lefschetz{k}"] = out
            elif group == "moebius":
                blocks = data.dirac.laplacian_blocks
                res["dets"] = tr.call("exact.det", lambda: [
                    det_bareiss(b.to_dense()) for b in blocks])
            else:
                res["s3_nullities"] = tr.call(
                    "exact.lap_rank", laplacian_nullities, data.dirac)
    tr.job = None
    return res


def _in_kernel(block, vec):
    for row in block.rows.values():
        if sum(v * vec[j] for j, v in row.items()):
            return False
    return True


def check(st, res):
    """The pinned values of the case study and the Hodge identities."""
    checks = {
        "cylinder nullities": res["cyl_nullities"] == CYLINDER_BETTI,
        "cylinder betti": res["cyl_betti"] == CYLINDER_BETTI,
        "harmonic counts": [len(f) for f in res["harmonic"]] == CYLINDER_BETTI,
        "harmonic in kernel": all(
            _in_kernel(block, vec)
            for block, forms in zip(res["laplacians"], res["harmonic"])
            for vec in forms),
        "zero modes": res["zero_counts"] == CYLINDER_BETTI,
        "automorphisms": res["automorphisms"] == 16,
        "moebius dets": (all(d != 0 for d in res["dets"])
                         and res["dets"][1] == MOEBIUS_DET1),
        "three_sphere nullities": res["s3_nullities"] == THREE_SPHERE_NULLITIES,
    }
    lef1 = res["lefschetz1"]
    checks["lefschetz k=1 multiset"] = (
        sorted(r["lefschetz"] for r in lef1) == LEFSCHETZ_K1)
    wrong = [name for name, ok in checks.items() if not ok]
    for k in (1, 2):
        for i, r in enumerate(res[f"lefschetz{k}"]):
            if not (r["fixed_point_ok"] and r["lefschetz"] == r["index_sum"]):
                wrong.append(f"fixed point identity k={k} automorphism {i}")
    mismatches = sum(a != b for a, b in
                     zip(res["zero_counts"], res["cyl_nullities"]))
    mismatches += abs(len(res["zero_counts"]) - len(res["cyl_nullities"]))
    attempted = len(checks) + len(res["lefschetz1"]) + len(res["lefschetz2"])
    return {"attempted": attempted, "failed": len(wrong), "wrong": wrong,
            "counts": {"dynamics.zero_mode_mismatches": mismatches}}
