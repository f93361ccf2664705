"""Spectral side of the theory: heat supertrace, wave evolution, and the
isospectral Lax deformation of the Dirac operator.

Everything here is floating point by design; exact integer invariants live
in the other modules and the tests reconcile the two views. Each function
that uses numpy imports it in its own body, so importing this module, as
the package and the command line front end do, does not load numpy: only
the commands that ask for floats pay for it.
"""

from __future__ import annotations

import math
import warnings

from .differential import DiracLaplacian
from .exact import check_dense, dense_array, gram_entries

# RK4 budgets of lax_deform: each step takes four n x n products, so a
# flow with more steps, or with more work (steps x n**3), is an input error
# to reject before the first step; 100 steps of cylinder at k = 2 (n = 416,
# work 7.2e9) take about 2 s on a 2-vCPU host with one BLAS thread, so the
# work budget is about half a minute there
MAX_LAX_STEPS = 100_000
MAX_LAX_WORK = 10 ** 11


def block_spectra(dl: DiracLaplacian, tol: float = 1e-8,
                  exact_nullities=None):
    """Eigenvalues of each Laplacian block, ascending, read from
    gram_entries(M_p) as the certificate reads it. Values with
    |lambda| <= tol are zero modes and snapped to zero, the same rule as in
    supersymmetry_gap; when exact nullities are supplied, the snap count is
    checked against them and a mismatch warns (RuntimeWarning) rather than
    raising, since the caller asked for floats. A block over the dense
    budget raises ValueError before the first eigensolve."""
    import numpy

    for n in dl.grade_sizes:
        check_dense(n, n)
    out = []
    for p, m in enumerate(dl.columns):
        n, ii, jj, vals = gram_entries(m)
        # L_p as a dense float64 block: each (row, column) key comes once
        evals = numpy.linalg.eigvalsh(
            numpy.bincount(ii * n + jj, vals, n * n).reshape(n, n))
        snapped = numpy.where(numpy.abs(evals) <= tol, 0.0, evals)
        zero_count = int(numpy.sum(snapped == 0.0))
        if exact_nullities is not None and zero_count != exact_nullities[p]:
            warnings.warn(f"grade {p}: {zero_count} numerical zero modes "
                          f"but nullity {exact_nullities[p]}", RuntimeWarning)
        out.append(snapped)
    return out


def mckean_singer_supertrace(spectra, t: float) -> float:
    """Supertrace of the heat kernel at time t from per-grade spectra."""
    import numpy

    total = 0.0
    for p, evals in enumerate(spectra):
        term = float(numpy.sum(numpy.exp(-t * evals)))
        total += term if p % 2 == 0 else -term
    return total


def supersymmetry_gap(spectra, tol: float = 1e-8) -> dict:
    """Nonzero eigenvalues of the even blocks against the odd blocks.

    The union of the even nonzero spectra must equal the union of the odd
    ones as multisets; the report carries the largest pairing gap. Values
    with |lambda| <= tol are zero modes, as in block_spectra."""
    even, odd = [], []
    for p, evals in enumerate(spectra):
        vals = [float(x) for x in evals if abs(x) > tol]
        (even if p % 2 == 0 else odd).extend(vals)
    even.sort()
    odd.sort()
    gap = (max((abs(a - b) for a, b in zip(even, odd)), default=0.0)
           if len(even) == len(odd) else math.inf)
    return {"even": len(even), "odd": len(odd), "max_gap": gap,
            "supersymmetric": gap <= tol * 10}


def wave_evolve(dl: DiracLaplacian, u0, v0, t: float):
    """d'Alembert solution of u'' = -L u with u(0)=u0, u'(0)=v0, computed
    through the Dirac operator: zero modes drift linearly, the rest rotate."""
    import numpy

    d = dense_array(dl.dirac)
    u0 = numpy.asarray(u0, dtype=float)
    v0 = numpy.asarray(v0, dtype=float)
    if d.shape[0] != u0.shape[0] or d.shape[0] != v0.shape[0]:
        raise ValueError("initial data does not match operator size")
    evals, q = numpy.linalg.eigh(d)
    a, b = q.T @ u0, q.T @ v0
    scale = numpy.abs(evals).max(initial=1.0)
    small = numpy.abs(evals) < 1e-12 * (1.0 + scale)
    cos_part = numpy.cos(evals * t) * a
    sin_part = numpy.where(small, t * b,
                           numpy.sin(evals * t) / numpy.where(small, 1.0, evals) * b)
    return q @ (cos_part + sin_part)


def lax_steps(size: int, t_max: float, dt: float) -> int:
    """The RK4 steps of lax_deform on a size x size Dirac matrix, where size
    is the basis size; ValueError when t_max / dt exceeds MAX_LAX_STEPS or
    steps times size**3 exceeds MAX_LAX_WORK."""
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    if not t_max / dt <= MAX_LAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.3g} asks for more than "
                         f"{MAX_LAX_STEPS} RK4 steps")
    steps = max(1, int(round(t_max / dt)))
    if steps * size ** 3 > MAX_LAX_WORK:
        raise ValueError(f"{steps} RK4 steps on a {size} x {size} "
                         f"Dirac matrix exceed the work budget of "
                         f"{MAX_LAX_WORK:.0e} steps x n^3")
    return steps


def lax_deform(dl: DiracLaplacian, mode: str = "real", t_max: float = 1.0,
               dt: float = 0.01):
    """Integrate D' = [B(D), D] with fourth order Runge-Kutta.

    In real mode B = d - d^T built from the current raising part; the flow
    is isospectral and pushes D toward block diagonal form. Complex mode
    adds -i b and makes the operator genuinely complex. B(D) is sign * D
    entry by entry, with sign fixed by the grades, and B is anti-Hermitian,
    so each RK4 stage takes one product X = B D and the bracket is
    X + X^H: D stays exactly Hermitian by construction. Raises ValueError
    before the dense copy when lax_steps refuses the flow, and
    ArithmeticError on spectral drift beyond ten times the allowed
    tolerance.

    Returns (d, report): d is the deformed Dirac matrix at t_max, report
    carries the drift diagnostics.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"unknown deformation mode {mode!r}")
    steps = lax_steps(dl.size, t_max, dt)
    import numpy

    grades = numpy.repeat(numpy.arange(len(dl.grade_sizes)), dl.grade_sizes)
    # entries from grade q to grade q + 1 give +1 in sign, their transposes
    # -1, and in complex mode the entries within one grade -i
    raising_mask = grades[:, None] == grades[None, :] + 1
    sign = raising_mask.astype(float) - raising_mask.T
    d = dense_array(dl.dirac)
    if mode == "complex":
        d = d.astype(complex)
        sign = sign - 1j * (grades[:, None] == grades[None, :])
    norm0 = numpy.linalg.norm(d) or 1.0
    spec0 = numpy.linalg.eigvalsh(d)
    tol = 1e-6 * norm0

    def bracket(x):
        bx = (sign * x) @ x
        return bx + bx.conj().T

    h = t_max / steps
    with numpy.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            k1 = bracket(d)
            k2 = bracket(d + 0.5 * h * k1)
            k3 = bracket(d + 0.5 * h * k2)
            k4 = bracket(d + h * k3)
            d = d + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not numpy.isfinite(d).all():
                raise ArithmeticError(
                    f"flow diverged at t={step * h:.4g}; reduce dt")

    spec1 = numpy.linalg.eigvalsh(d)
    drift = float(numpy.abs(spec0 - spec1).max(initial=0.0))
    if drift > 10 * tol:
        raise ArithmeticError(f"spectral drift {drift:.3e} exceeds 10 * "
                              f"{tol:.3e}; reduce dt")
    raising = numpy.where(raising_mask, d, 0.0)
    d2 = float(numpy.abs(raising @ raising).max(initial=0.0))
    report = {
        "mode": mode,
        "steps": steps,
        "spectral_drift": drift,
        "drift_tolerance": tol,
        "isospectral": drift <= tol,
        "d_squared": d2,
        "nilpotent": d2 < 1e-8,
    }
    return d, report

