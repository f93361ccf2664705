"""Exterior derivative, Dirac operator and Hodge Laplacian on interaction bases.

The derivative of a form on k-tuples sends each tuple to its signed faces
by the Leibniz rule: a face of part j carries its own face sign times
(-1)^(dims of the parts before j). It is assembled in the cohomology
direction, one coboundary row of d_p^T per grade-p tuple, on the integer
codes of the basis: a coface of part j swaps digit j of the code for the
coface id and carries the same sign, so each entry is one dict lookup and
no tuple is built. The basis is closed upward (enlarging a part keeps the
common point), so every lookup hits; and a tuple between two basis tuples
is itself in the basis, which is why the restricted d still squares to 0.

coboundary_assembler holds that one assembly loop, for one block d_p^T
without a given set of rows, with the coface tables built once per basis:
interaction_derivative stores the transposes of its blocks in the layout
order of the basis, and the streamed Betti route (cohomology.incident_ranks)
asks for one block at a time in walk order without the rows that clearing
drops, so those rows are never built and the layout is never sorted.

Matrices map grade-p coordinates to grade-(p+1) coordinates, so d_p has
shape (n_(p+1), n_p), kernels are cocycles and d^2 = 0 reads d_(p+1) d_p = 0.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .basis import InteractionBasis
from .exact import SparseIntMatrix


class GradedIntMatrix:
    """The family {d_p} of derivative blocks for one interaction basis."""

    def __init__(self, grade_sizes, blocks):
        self.grade_sizes = grade_sizes
        self.blocks = blocks
        self.ranks = None  # kept by cohomology.incident_ranks on first use

    def __repr__(self):
        shapes = [(b.nrows, b.ncols) for b in self.blocks]
        return f"GradedIntMatrix(blocks={shapes})"


def _face_table(system):
    """The face relation of system read upward, per cell in cells order:
    its cofaces as (coface id, sign), the cells whose cell_boundary holds
    it with that sign, and the parity of its dimension."""
    ids = {cell: i for i, cell in enumerate(system.cells)}
    cofaces = [[] for _ in ids]
    for i, cell in enumerate(system.cells):
        for f, sign in system.cell_boundary(cell):
            cofaces[ids[f]].append((i, sign))
    return cofaces, [system.cell_dim(cell) & 1 for cell in system.cells]


def coboundary_assembler(b: InteractionBasis, codes=None):
    """The function block(p, skip=()) that assembles d_p^T, a row per
    grade-p tuple and a column per grade-(p+1) tuple in the order of codes
    (b.layout unless given), without the rows in skip: the one assembly
    loop. The coface tables and the positions of the codes are built once
    here, shared by the blocks of one basis."""
    tables: dict = {}  # one coface table per distinct complex
    for s in b.systems:
        if s not in tables:
            tables[s] = _face_table(s)
    slots = [(r, tables[s]) for r, s in zip(b.radices, b.systems)]
    if codes is None:
        codes = b.layout
    position = {code: pos for g in codes for pos, code in enumerate(g)}

    def block(p: int, skip=()) -> SparseIntMatrix:
        m = SparseIntMatrix(len(codes[p]), len(codes[p + 1]))
        for row, code in enumerate(codes[p]):
            if row in skip:
                continue
            # a coface keeps the common point, so its code is in position;
            # distinct (slot, coface) swaps give distinct codes
            entries = {}
            rest, odd = code, 0
            for r, (cofaces, parity) in slots:
                c, rest = divmod(rest, r)
                base = code - c * r
                for f, sign in cofaces[c]:
                    entries[position[base + f * r]] = -sign if odd else sign
                odd ^= parity[c]
            if entries:
                m.rows[row] = entries
        return m

    return block


def transpose(m: SparseIntMatrix, skip=()) -> SparseIntMatrix:
    """m^T without the rows in skip, that is m without those columns."""
    rows = {j: {} for j in range(m.ncols) if j not in skip}
    for i, row in m.rows.items():
        for j, v in row.items():
            if j in rows:
                rows[j][i] = v
    return SparseIntMatrix(m.ncols, m.nrows,
                           {j: r for j, r in rows.items() if r})


def interaction_derivative(b: InteractionBasis) -> GradedIntMatrix:
    block = coboundary_assembler(b)
    return GradedIntMatrix(b.grade_sizes(), [
        transpose(block(p)) for p in range(len(b.grade_sizes()) - 1)])


def verify_d_squared(d: GradedIntMatrix) -> bool:
    for p in range(len(d.blocks) - 1):
        if not d.blocks[p + 1].matmul(d.blocks[p]).is_zero():
            return False
    return True


def _gram(vectors):
    """The sum of v v^T over sparse integer vectors {index: value}, as the
    rows of a symmetric matrix with its cancelled entries dropped. Every
    diagonal entry is a sum of squares of the vectors touching it, so no
    row ends up empty."""
    rows: dict = {}
    for v in vectors:
        for i, a in v.items():
            row = rows.setdefault(i, {})
            for j, b in v.items():
                row[j] = row.get(j, 0) + a * b
    return {i: {j: w for j, w in row.items() if w} for i, row in rows.items()}


def dirac_columns(d: GradedIntMatrix):
    """The columns of D = d + d^T on each grade p, as a matrix M_p with n_p
    columns whose rows are the rows of d_p (shared, not copied) and the
    columns of d_(p-1), keyed by their coordinate in the full graded space.
    So D is the sum of the M_p placed at their column offsets, and
    L_p = M_p^T M_p."""
    offsets = list(accumulate(d.grade_sizes, initial=0))
    out = []
    for p, n in enumerate(d.grade_sizes):
        rows: dict = {}
        if p < len(d.blocks):
            rows = {offsets[p + 1] + i: r for i, r in d.blocks[p].rows.items()}
        if p > 0:
            rows.update((offsets[p - 1] + j, r)
                        for j, r in transpose(d.blocks[p - 1]).rows.items())
        out.append(SparseIntMatrix(offsets[-1], n, rows))
    return out


class DiracLaplacian:
    """D = d + d^T on the full graded space and the blocks of L = D^2. The
    blocks are built at once; D is built when it is first read (only the
    wave and Lax flows read it)."""

    def __init__(self, derivative: GradedIntMatrix):
        self.derivative = derivative
        self.grade_sizes = derivative.grade_sizes
        *self.offsets, self.size = accumulate(self.grade_sizes, initial=0)
        # L_p = d_p^T d_p + d_(p-1) d_(p-1)^T is the sum of v v^T over the
        # rows v of M_p
        self.laplacian_blocks = [SparseIntMatrix(n, n, _gram(m.rows.values()))
                                 for m, n in zip(dirac_columns(derivative),
                                                 self.grade_sizes)]

    @cached_property
    def dirac(self) -> SparseIntMatrix:
        dirac: dict = {}
        for m, co in zip(dirac_columns(self.derivative), self.offsets):
            for i, row in m.rows.items():
                dirac.setdefault(i, {}).update(
                    (co + j, v) for j, v in row.items())
        return SparseIntMatrix(self.size, self.size, dirac)

    def grading(self):
        """Grade label per coordinate of the full space."""
        out = []
        for p, n in enumerate(self.grade_sizes):
            out.extend([p] * n)
        return out

    def __repr__(self):
        return (f"DiracLaplacian(size={self.size}, "
                f"blocks={[b.nrows for b in self.laplacian_blocks]})")


def dirac_and_laplacian(d: GradedIntMatrix) -> DiracLaplacian:
    if not verify_d_squared(d):
        raise ArithmeticError("d^2 != 0: derivative blocks are inconsistent")
    return DiracLaplacian(d)
