"""Exact Betti vectors, harmonic representatives, and the Euler-Poincare check.

All ranks are exact over the rationals, except that a Laplacian nullity
takes the count of exact.rank_mod when the derivative ranks certify it
(laplacian_nullities), and every exact Hodge elimination reads the stacked
derivative M_p, never L_p. The derivative ranks are cleared from grade 0
up, in the cohomology direction (de Silva, Morozov and Vejdemo-Johansson,
Dualities in persistent (co)homology, 2011; Bauer, Ripser, 2021; see
incident_ranks), by the left-looking standard reduction of
exact.pivot_rows (PHAT, 2017). So the Betti vector streams, as Ripser
does: each row of d_p^T enters as its code, in walk order, with its least
coface code as its leading column, and is built only when a reduction
reads it, for one row in thirteen on the catalog. The basis packs each
grade's codes as unsigned 64-bit integers (a list of ints past 64 bits).
This is the one rank route: the Laplacian nullities and the harmonic
forms read their ranks from the basis the same way. A basis is checked
grade by grade against the exact face count of basis.grade_counts, which
the Wu characteristic reads too, so the Euler-Poincare check has one side
with no tuple walk.
Betti vectors are reported with length equal to the number of grades of the
basis (trailing zeros kept), which is how the reference tables print them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import exact
from .basis import InteractionBasis, build_basis, grade_counts
from .differential import (DiracLaplacian, GradedIntMatrix, coboundary,
                           interaction_derivative)


def incident_ranks(b: InteractionBasis):
    """rank(d_(p-1)) + rank(d_p) for each grade p, exact; the derivative
    into grade 0 and the one out of the top grade are zero. The blocks
    stream one at a time, a row per code in walk order.

    Each block is ranked as d_p^T, from grade 0 up, without the rows at the
    pivot columns of the block below. Those columns J of d_(p-1)^T are
    independent and span its column space, so
    d_(p-1)^T d_p^T = (d_p d_(p-1))^T = 0 writes each row of d_p^T in J as
    a combination of its rows outside J, and dropping them leaves rank(d_p)
    unchanged over Q. Only J passes from one grade to the next.
    """
    leads, row = coboundary(b)
    sizes = b.grade_sizes()
    ranks = [0] * (len(sizes) + 1)
    cleared = set()
    for p in range(len(sizes) - 1):
        cleared = set(exact.pivot_rows(leads(b.codes[p], cleared), row))
        ranks[p + 1] = len(cleared)
    return [ranks[p] + ranks[p + 1] for p in range(len(sizes))]


def betti_vector(b: InteractionBasis):
    """b_p = n_p - rank(d_p) - rank(d_(p-1)), one entry per grade."""
    betti = []
    for p, (n, r) in enumerate(zip(b.grade_sizes(), incident_ranks(b))):
        if n < r:
            raise ArithmeticError(
                f"negative Betti number at grade {p}: rank bookkeeping is broken")
        betti.append(n - r)
    return betti


def harmonic_basis(dl: DiracLaplacian):
    """Exact rational kernel bases of the Laplacian blocks, one list per grade.

    ker L_p is taken as ker M_p, the rows of d_p and the columns of d_(p-1)
    stacked (dl.columns): L_p = M_p^T M_p, so x^T L_p x = |M_p x|^2 and the
    two share their kernel over Q and its reduced-echelon basis, while M_p
    has +-1 entries and no Gram fill-in. Taking the DiracLaplacian keeps
    its d^2 = 0 check, which its constructor runs, in front of every
    caller, and with d^2 = 0, dim ker M_p = b_p, so a grade with b_p = 0
    gets [] and no elimination.
    Vectors are primitive integer vectors.
    """
    betti = betti_vector(dl.derivative.basis)
    return [exact.kernel_basis(m) if b else []
            for m, b in zip(dl.columns, betti)]


def laplacian_nullities(dl: DiracLaplacian):
    """dim ker L_p for each grade p, exact; no L_p is built as a dict.

    Each rank is sandwiched: exact.rank_mod(L_p) is at most rank_Q(L_p) for
    any symmetric L_p, and L_p = d_p^T d_p + d_(p-1) d_(p-1)^T gives
    rank_Q(L_p) <= rank(d_p) + rank(d_(p-1)) by subadditivity alone. When
    the two meet, as they do on the positive-semidefinite L_p unless q
    divides a pivot, the nullity is n_p minus that rank. rank_mod reads L_p
    as exact.gram_entries(M_p), whose envelope gives the window side before
    any allocation; over exact.MAX_DENSE_ENTRIES, or on a miss, the nullity
    is exact.nullity(M_p), sharing its kernel with L_p (harmonic_basis): an
    elimination of other rows than the streamed ranks, still independent.
    """
    out, bounds = [], incident_ranks(dl.derivative.basis)
    for m, bound in zip(dl.columns, bounds):
        env = exact.envelope(exact.gram_entries(m))
        if (env[0] ** 2 <= exact.MAX_DENSE_ENTRIES
                and exact.rank_mod(env) == bound):
            out.append(m.ncols - bound)
        else:
            out.append(exact.nullity(m))
    return out


def normalize_complexes(complexes, k=None):
    """Accept one complex or a list; replicate a single complex k times."""
    if hasattr(complexes, "cells"):
        complexes = [complexes]
    complexes = tuple(complexes)
    if k is not None:
        if len(complexes) == 1 and k > 1:
            complexes = complexes * k
        if len(complexes) != k:
            raise ValueError(f"expected {k} complexes, got {len(complexes)}")
    if not complexes:
        raise ValueError("need at least one complex")
    return complexes


class CohomologyData:
    """Lazily computed basis, derivative, Laplacian and Betti data for one
    tuple of complexes. Obtained through cohomology_data() which caches."""

    def __init__(self, complexes):
        self.complexes = complexes

    @cached_property
    def grade_counts(self):
        # the exact tuple count of each grade, summed over common faces with
        # no walk: an input over the tuple budget is refused here
        return grade_counts(self.complexes)

    @cached_property
    def basis(self) -> InteractionBasis:
        sizes = self.grade_counts
        b = build_basis(self.complexes)
        if b.grade_sizes() != sizes:
            raise ArithmeticError(f"basis grade sizes {b.grade_sizes()} "
                                  f"differ from the face count {sizes}")
        return b

    @cached_property
    def derivative(self) -> GradedIntMatrix:
        return interaction_derivative(self.basis)

    @cached_property
    def dirac(self) -> DiracLaplacian:
        return DiracLaplacian(self.derivative)

    @cached_property
    def betti(self):
        # streamed from the basis: never fills self.derivative
        return betti_vector(self.basis)

    @cached_property
    def harmonic(self):
        return harmonic_basis(self.dirac)

    @cached_property
    def wu(self) -> int:
        return sum(-n if p % 2 else n for p, n in enumerate(self.grade_counts))


# Sized from measured traffic (perfbench/run.py, every workload): a reused
# key comes back with at most one other key in between (cylinder k=2 around
# its k=1 Lefschetz sweep), except for one hit in wucalc fixtures (star5 at
# k=2, 14 keys later, about 1 ms to rebuild). A Betti entry keeps only its
# basis alive; a Hodge, spectrum or Lefschetz entry keeps its derivative,
# M_p and any L_p read too, which a larger bound would hold for that hit.
@lru_cache(maxsize=4)
def cohomology_data(complexes: tuple) -> CohomologyData:
    return CohomologyData(complexes)


def euler_poincare_check(complexes, k=None) -> dict:
    """Compare the alternating Betti sum with the Wu characteristic."""
    complexes = normalize_complexes(complexes, k)
    data = cohomology_data(complexes)
    # the face count behind the Wu characteristic refuses an input over the
    # tuple budget before build_basis runs, and checks the basis it builds
    wu, betti = data.wu, data.betti
    alternating = sum((-1) ** p * b for p, b in enumerate(betti))
    return {
        "k": len(complexes),
        "betti": list(betti),
        "wu": wu,
        "alternating_sum": alternating,
        "euler_poincare_ok": alternating == wu,
    }


def poincare_polynomial(complexes, k=None):
    """Coefficient list [b_0, b_1, ...]; evaluates to omega_k at t = -1."""
    complexes = normalize_complexes(complexes, k)
    return list(cohomology_data(complexes).betti)
