"""Spectral side of the theory: heat supertrace, wave evolution, and the
isospectral Lax deformation of the Dirac operator.

Everything here is floating point by design; exact integer invariants live
in the other modules and the tests reconcile the two views.
"""

from __future__ import annotations

import logging
import math

import numpy

from .differential import DiracLaplacian
from .exact import check_dense, dense_array

log = logging.getLogger(__name__)

# RK4 budgets of lax_deform: each step evaluates the bracket four times on
# dense n x n matrices, so a flow with more steps, or with more work
# (steps x n**3), is an input error to reject before the first step; 100
# steps of cylinder at k = 2 (n = 416, work 7.2e9) take 4 s on a 2-vCPU
# host, so the work budget is about a minute there
MAX_LAX_STEPS = 100_000
MAX_LAX_WORK = 10 ** 11


def block_spectra(dl: DiracLaplacian, tol: float = 1e-8,
                  exact_nullities=None):
    """Eigenvalues of each Laplacian block, ascending. Values with
    |lambda| <= tol are zero modes and snapped to zero, the same rule as in
    supersymmetry_gap; when exact nullities are supplied, the snap count is
    checked against them and a mismatch logs a warning rather than raising,
    since the caller asked for floats. A block over the dense budget raises
    ValueError before the first eigensolve."""
    for block in dl.laplacian_blocks:
        check_dense(block)
    out = []
    for p, block in enumerate(dl.laplacian_blocks):
        n = block.nrows
        if n == 0:
            out.append(numpy.zeros(0))
            continue
        evals = numpy.linalg.eigvalsh(dense_array(block))
        snapped = numpy.where(numpy.abs(evals) <= tol, 0.0, evals)
        zero_count = int(numpy.sum(snapped == 0.0))
        if exact_nullities is not None and zero_count != exact_nullities[p]:
            log.warning(
                "grade %d: %d numerical zero modes but nullity %d",
                p, zero_count, exact_nullities[p])
        out.append(snapped)
    return out


def dirac_spectrum(dl: DiracLaplacian):
    dense = dense_array(dl.dirac)
    if dense.size == 0:
        return numpy.zeros(0)
    return numpy.linalg.eigvalsh(dense)


def mckean_singer_supertrace(spectra, t: float) -> float:
    """Supertrace of the heat kernel at time t from per-grade spectra."""
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
    if len(even) != len(odd):
        return {"even": len(even), "odd": len(odd), "max_gap": math.inf,
                "supersymmetric": False}
    gap = max((abs(a - b) for a, b in zip(even, odd)), default=0.0)
    return {"even": len(even), "odd": len(odd), "max_gap": gap,
            "supersymmetric": gap <= tol * 10}


def supertrace_power(dl: DiracLaplacian, n: int) -> int:
    """Exact supertrace of L^n; vanishes for small n by supersymmetry."""
    total = 0
    for p, block in enumerate(dl.laplacian_blocks):
        power = block
        for _ in range(n - 1):
            power = power.matmul(block)
        tr = power.trace()
        total += tr if p % 2 == 0 else -tr
    return total


def wave_evolve(dl: DiracLaplacian, u0, v0, t: float):
    """d'Alembert solution of u'' = -L u with u(0)=u0, u'(0)=v0, computed
    through the Dirac operator: zero modes drift linearly, the rest rotate."""
    d = dense_array(dl.dirac)
    u0 = numpy.asarray(u0, dtype=float)
    v0 = numpy.asarray(v0, dtype=float)
    if d.shape[0] != u0.shape[0] or d.shape[0] != v0.shape[0]:
        raise ValueError("initial data does not match operator size")
    evals, q = numpy.linalg.eigh(d)
    a = q.T @ u0
    b = q.T @ v0
    scale = numpy.abs(evals).max(initial=1.0)
    small = numpy.abs(evals) < 1e-12 * (1.0 + scale)
    cos_part = numpy.cos(evals * t) * a
    sin_part = numpy.where(small, t * b,
                           numpy.sin(evals * t) / numpy.where(small, 1.0, evals) * b)
    return q @ (cos_part + sin_part)


class DeformationState:
    """One snapshot of the Lax flow."""

    def __init__(self, time, matrix, grading):
        self.time = time
        self.matrix = matrix
        self.grading = list(grading)

    def __repr__(self):
        return f"DeformationState(t={self.time:.4f}, n={self.matrix.shape[0]})"


def _bracket_rhs(d, raising_mask, diagonal_mask):
    """[B(D), D] for B = d - d^T built from the raising part of D, minus
    i times its diagonal part when a diagonal mask is given."""
    raising = numpy.where(raising_mask, d, 0.0)
    b = raising - raising.conj().T
    if diagonal_mask is not None:
        b = b - 1j * numpy.where(diagonal_mask, d, 0.0)
    return b @ d - d @ b


def lax_deform(dl: DiracLaplacian, mode: str = "real", t_max: float = 1.0,
               dt: float = 0.01, keep: int = 0):
    """Integrate D' = [B(D), D] with fourth order Runge-Kutta.

    In real mode B = d - d^T built from the current raising part; the flow
    is isospectral and pushes D toward block diagonal form. Complex mode
    adds -i b and makes the operator genuinely complex. Raises ValueError
    before the dense copy when t_max / dt exceeds MAX_LAX_STEPS or steps
    times n**3 exceeds MAX_LAX_WORK, and ArithmeticError on spectral drift
    beyond ten times the allowed tolerance.

    Returns (states, report): states has the initial and final snapshot plus
    up to `keep` intermediate ones, report carries the drift diagnostics.
    """
    if mode not in ("real", "complex"):
        raise ValueError(f"unknown deformation mode {mode!r}")
    if dt <= 0 or t_max < 0:
        raise ValueError("need dt > 0 and t_max >= 0")
    if not t_max / dt <= MAX_LAX_STEPS:
        raise ValueError(f"t_max / dt = {t_max / dt:.3g} asks for more than "
                         f"{MAX_LAX_STEPS} RK4 steps")
    steps = max(1, int(round(t_max / dt)))
    if steps * dl.size ** 3 > MAX_LAX_WORK:
        raise ValueError(f"{steps} RK4 steps on a {dl.size} x {dl.size} "
                         f"Dirac matrix exceed the work budget of "
                         f"{MAX_LAX_WORK:.0e} steps x n^3")
    grading = dl.grading()
    grades = numpy.asarray(grading)
    # entries from grade q to grade q + 1, and within one grade
    raising_mask = grades[:, None] == grades[None, :] + 1
    diagonal_mask = None
    d = dense_array(dl.dirac)
    if mode == "complex":
        d = d.astype(complex)
        diagonal_mask = grades[:, None] == grades[None, :]
    norm0 = numpy.linalg.norm(d) or 1.0
    spec0 = numpy.linalg.eigvalsh(d)
    tol = 1e-6 * norm0

    states = [DeformationState(0.0, d.copy(), grading)]
    h = t_max / steps
    snap_every = max(1, steps // keep) if keep else steps + 1
    t = 0.0
    for step in range(steps):
        with numpy.errstate(over="ignore", invalid="ignore"):
            k1 = _bracket_rhs(d, raising_mask, diagonal_mask)
            k2 = _bracket_rhs(d + 0.5 * h * k1, raising_mask, diagonal_mask)
            k3 = _bracket_rhs(d + 0.5 * h * k2, raising_mask, diagonal_mask)
            k4 = _bracket_rhs(d + h * k3, raising_mask, diagonal_mask)
            d = d + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            d = 0.5 * (d + d.conj().T)
        if not numpy.isfinite(d).all():
            raise ArithmeticError(
                f"flow diverged at t={t + h:.4g}; reduce dt")
        t += h
        if (step + 1) % snap_every == 0 and step + 1 < steps:
            states.append(DeformationState(t, d.copy(), grading))
    states.append(DeformationState(t_max, d.copy(), grading))

    spec1 = numpy.linalg.eigvalsh(d)
    drift = float(numpy.abs(spec0 - spec1).max(initial=0.0))
    if drift > 10 * tol:
        raise ArithmeticError(
            f"spectral drift {drift:.3e} exceeds 10 * {tol:.3e}; "
            "reduce dt")
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
    return states, report

