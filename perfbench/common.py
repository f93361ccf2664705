"""Helpers shared by the workloads: running one CLI request in process, and
replaying the lazy stages of a CohomologyData one layer per span."""

from __future__ import annotations

import io
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout


def call_main(main, argv):
    """Run cli.main(argv) with stdout and stderr captured.

    Returns (seconds, exit code, stdout, stderr, escaped exception text). An
    exception escaping main is recorded, not raised: the benchmark counts it
    as a failed request and keeps going.
    """
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 1
    except Exception as error:  # noqa: BLE001 - counted per request
        exc = f"{type(error).__name__}: {error}"
    dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue(), exc


def ranks_from_betti(sizes, betti):
    """Ranks of d_0, d_1, ... recovered from b_p = n_p - r_p - r_(p-1)."""
    ranks = []
    prev = 0
    for n, b in zip(sizes[:-1], betti[:-1]):
        prev = n - b - prev
        ranks.append(prev)
    return ranks


def fill_stages(tr, data, dirac=False, betti=False, harmonic=False):
    """Compute the stages of `data` in the order the end-to-end path needs
    them, one span per layer, so later calls find them cached.

    dirac_and_laplacian is replayed as its two calls, the d^2 check and the
    Laplacian assembly, and the result is stored where the lazy attribute
    keeps it.
    """
    from wucalc.differential import DiracLaplacian, verify_d_squared

    cached = vars(data)
    if "basis" not in cached:
        basis = tr.call("basis.build", getattr, data, "basis")
        tr.count("basis.tuples", sum(basis.grade_sizes()))
        tr.note_basis(sum(basis.grade_sizes()), data.complexes)
    if "derivative" not in cached:
        d = tr.call("differential.derivative", getattr, data, "derivative")
        tr.count("differential.d_nnz", sum(b.nnz() for b in d.blocks))
    d = data.derivative
    if dirac and "dirac" not in cached:
        if not tr.call("differential.d_squared", verify_d_squared, d):
            raise ArithmeticError("d^2 != 0: derivative blocks are inconsistent")
        dl = tr.call("differential.laplacian", DiracLaplacian, d)
        cached["dirac"] = dl
        tr.count("differential.laplacian_nnz",
                 sum(b.nnz() for b in dl.laplacian_blocks))
    if betti and "betti" not in cached:
        b = tr.call("exact.rank", getattr, data, "betti")
        tr.count("exact.rank_calls", len(d.blocks))
        tr.count("exact.rank_sum", sum(ranks_from_betti(d.grade_sizes, b)))
    if harmonic and "harmonic" not in cached:
        forms = tr.call("exact.kernel", getattr, data, "harmonic")
        tr.count("exact.kernel_vectors", sum(len(f) for f in forms))
        tr.gauge("exact.kernel_max_abs",
                 max((abs(x) for f in forms for v in f for x in v), default=0))


def memory_probe(complexes):
    """Peak traced Python allocation, in MB, of building the basis and then
    the derivative of `complexes`. Run after the timed pass, on fresh objects,
    because tracemalloc slows the code it watches."""
    from wucalc.basis import build_basis
    from wucalc.differential import interaction_derivative

    tracemalloc.start()
    try:
        basis = build_basis(complexes)
        basis_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        interaction_derivative(basis)
        deriv_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return basis_peak / 2 ** 20, deriv_peak / 2 ** 20


def padded(vec, n):
    return list(vec) + [0] * (n - len(vec))


def same_betti(a, b):
    n = max(len(a), len(b))
    return padded(a, n) == padded(b, n)
