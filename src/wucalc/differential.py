"""Exterior derivative, Dirac operator and Hodge Laplacian on interaction bases.

The derivative of a form on k-tuples sends each tuple to its signed faces
by the Leibniz rule: a face of part j carries its own face sign times
(-1)^(dims of the parts before j). It is assembled in the cohomology
direction, one coboundary row of d_p^T per grade-p tuple, on the integer
codes of the basis: a coface of part j swaps digit j of the code for the
coface id and carries the same sign, so each entry is a little integer
arithmetic and no tuple is built. The basis is closed upward (enlarging a
part keeps the common point), so every coface code is a basis code; and a
tuple between two basis tuples is itself in the basis, which is why the
restricted d still squares to 0.

coboundary holds that one assembly loop, keyed by code; every rank
streams from it (cohomology.incident_ranks), and interaction_derivative
writes each d_p in the layout order of the basis for the routes that read
a matrix: the Laplacian, Dirac, spectrum and harmonic routes.

A DiracLaplacian stacks the derivative of each grade p once, as M_p
(dirac_columns: the rows of d_p and the columns of d_(p-1)). D is their
sum; numeric code reads L_p = M_p^T M_p only as exact.gram_entries(M_p),
exact readers as one SparseIntMatrix.matmul on first read; the harmonic
forms and exact nullities are ker M_p.

Matrices map grade-p coordinates to grade-(p+1) coordinates, so d_p has
shape (n_(p+1), n_p), kernels are cocycles and d^2 = 0 reads d_(p+1) d_p = 0.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .basis import InteractionBasis
from .exact import SparseIntMatrix


class GradedIntMatrix:
    """The family {d_p} of derivative blocks of an interaction basis, in its
    layout order; the basis is kept, as the Hodge routes rank it."""

    def __init__(self, basis: InteractionBasis, blocks):
        self.basis = basis
        self.grade_sizes = basis.grade_sizes()
        self.blocks = blocks

    def __repr__(self):
        shapes = [(b.nrows, b.ncols) for b in self.blocks]
        return f"GradedIntMatrix(blocks={shapes})"


def _face_table(system):
    """The face relation of system read upward, per cell in cells order:
    its cofaces as (coface id, sign), ascending, the cells whose cell_boundary
    holds it with that sign, and the parity of its dimension. Raises
    ArithmeticError unless each face precedes its cofaces in cells."""
    ids = {cell: i for i, cell in enumerate(system.cells)}
    cofaces = [[] for _ in ids]
    for i, cell in enumerate(system.cells):
        for f, sign in system.cell_boundary(cell):
            if ids[f] >= i:
                raise ArithmeticError(f"face {f} does not precede {cell}")
            cofaces[ids[f]].append((i, sign))
    return cofaces, [system.cell_dim(cell) & 1 for cell in system.cells]


def coboundary(b: InteractionBasis):
    """The pair (leads, row) on the codes of b, with the face tables built
    once here, one per distinct complex. row(code) builds the coboundary
    of the tuple of code, {coface code: sign}: the one assembly loop.
    leads(codes, skip) yields (least coface code, code) for each code of
    codes outside skip that has a coface, in order, and builds no row: it
    swaps the last digit that has a coface for its first coface. Faces
    precede their cofaces in cells, so a swap at slot j adds at least r_j,
    and one at a later slot j' at most (n_j' - 1) r_j' < r_j."""
    tables = {s: _face_table(s) for s in dict.fromkeys(b.systems)}
    slots = [(r, tables[s]) for r, s in zip(b.radices, b.systems)]
    # last slot first: its size, each cell's shift to its first coface or 0
    (n, last), *earlier = [
        (len(cofaces), [(cf[0][0] - c) * r if cf else 0
                        for c, cf in enumerate(cofaces)])
        for r, (cofaces, _) in reversed(slots)]

    def row(code):
        # distinct (slot, coface) swaps give distinct codes, all in b
        entries = {}
        rest, odd = code, 0
        for r, (cofaces, parity) in slots:
            c, rest = divmod(rest, r)
            base = code - c * r
            for f, sign in cofaces[c]:
                entries[base + f * r] = -sign if odd else sign
            odd ^= parity[c]
        return entries

    def leads(codes, skip):
        for code in codes:
            if code not in skip:
                shift = last[code % n]
                if not shift:
                    rest = code // n
                    for m, table in earlier:
                        rest, c = divmod(rest, m)
                        if shift := table[c]:
                            break
                if shift:
                    yield code + shift, code

    return leads, row


def transpose(m: SparseIntMatrix) -> SparseIntMatrix:
    """m^T, its rows in column order."""
    rows = {j: {} for j in range(m.ncols)}
    for i, row in m.rows.items():
        for j, v in row.items():
            rows[j][i] = v
    return SparseIntMatrix(m.ncols, m.nrows,
                           {j: r for j, r in rows.items() if r})


def interaction_derivative(b: InteractionBasis) -> GradedIntMatrix:
    """The blocks d_p in the layout order of b, each in one row pass."""
    _, row = coboundary(b)
    g, blocks = b.layout, []
    for p in range(len(g) - 1):
        rows = {code: {} for code in g[p + 1]}
        for j, code in enumerate(g[p]):
            for f, sign in row(code).items():
                rows[f][j] = sign
        blocks.append(SparseIntMatrix(len(rows), len(g[p]), {
            i: r for i, r in enumerate(rows.values()) if r}))
    return GradedIntMatrix(b, blocks)


def verify_d_squared(d: GradedIntMatrix) -> bool:
    return not any(b.matmul(a).rows for a, b in zip(d.blocks, d.blocks[1:]))


def dirac_columns(d: GradedIntMatrix):
    """The columns of D = d + d^T on each grade p, as a matrix M_p with n_p
    columns whose rows are the rows of d_p (shared, not copied) and the
    columns of d_(p-1), keyed by their coordinate in the full graded space.
    So D is the sum of the M_p placed at their column offsets, and
    L_p = M_p^T M_p. The rows are stored last to first, the order that on
    the catalog surfaces at k=2 takes a third to a half fewer eliminations."""
    offsets = list(accumulate(d.grade_sizes, initial=0))
    out = []
    for p, n in enumerate(d.grade_sizes):
        rows: dict = {}
        if p > 0:
            rows = {offsets[p - 1] + j: r for j, r in
                    reversed(transpose(d.blocks[p - 1]).rows.items())}
        if p < len(d.blocks):
            rows.update((offsets[p + 1] + i, r)
                        for i, r in reversed(d.blocks[p].rows.items()))
        out.append(SparseIntMatrix(offsets[-1], n, rows))
    return out


class DiracLaplacian:
    """D = d + d^T on the full graded space and the blocks of L = D^2, read
    off the stacked derivatives M_p, self.columns, built at once; D (for the
    flows) and the exact L_p (for exact readers only) on first read. The
    constructor raises ArithmeticError unless d^2 = 0, which L = D^2 being
    block diagonal and b_p = dim ker L_p both need."""

    def __init__(self, derivative: GradedIntMatrix):
        if not verify_d_squared(derivative):
            raise ArithmeticError(
                "d^2 != 0: derivative blocks are inconsistent")
        self.derivative = derivative
        self.grade_sizes = derivative.grade_sizes
        *self.offsets, self.size = accumulate(self.grade_sizes, initial=0)
        self.columns = dirac_columns(derivative)

    @cached_property
    def laplacian_blocks(self) -> list:
        # L_p = d_p^T d_p + d_(p-1) d_(p-1)^T
        return [transpose(m).matmul(m) for m in self.columns]

    @cached_property
    def dirac(self) -> SparseIntMatrix:
        dirac: dict = {}
        for m, co in zip(self.columns, self.offsets):
            for i, row in m.rows.items():
                dirac.setdefault(i, {}).update(
                    (co + j, v) for j, v in row.items())
        return SparseIntMatrix(self.size, self.size, dirac)

    def __repr__(self):
        return f"DiracLaplacian(size={self.size}, blocks={self.grade_sizes})"


dirac_and_laplacian = DiracLaplacian
