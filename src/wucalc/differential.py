"""Exterior derivative, Dirac operator and Hodge Laplacian on interaction bases.

The derivative of a form on k-tuples sends each tuple to its signed faces
by the Leibniz rule of simplicial.leibniz_boundary. Face tuples that drop
out of the basis (the parts lose their common point) are omitted; a tuple
between two basis tuples is itself in the basis, which is why the
restricted d still squares to zero.

Matrices map grade-p coordinates to grade-(p+1) coordinates, so d_p has
shape (n_(p+1), n_p), kernels are cocycles and d^2 = 0 reads d_(p+1) d_p = 0.
"""

from __future__ import annotations

from .basis import InteractionBasis
from .exact import SparseIntMatrix
from .simplicial import leibniz_boundary


class GradedIntMatrix:
    """The family {d_p} of derivative blocks for one interaction basis."""

    def __init__(self, grade_sizes, blocks):
        self.grade_sizes = grade_sizes
        self.blocks = blocks

    def __repr__(self):
        shapes = [(b.nrows, b.ncols) for b in self.blocks]
        return f"GradedIntMatrix(blocks={shapes})"


def interaction_derivative(b: InteractionBasis) -> GradedIntMatrix:
    systems = b.systems
    index = b.index
    blocks = []
    for p in range(len(b.grades) - 1):
        m = SparseIntMatrix(len(b.grades[p + 1]), len(b.grades[p]))
        for row, t in enumerate(b.grades[p + 1]):
            # distinct (slot, vertex) removals give distinct face tuples, so
            # each column is written once and needs no accumulation
            entries = {}
            for ft, sign in leibniz_boundary(systems, t):
                col = index.get(ft)
                if col is not None:
                    entries[col] = sign
            if entries:
                m.rows[row] = entries
        blocks.append(m)
    return GradedIntMatrix(b.grade_sizes(), blocks)


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


class DiracLaplacian:
    """D = d + d^T on the full graded space and the blocks of L = D^2."""

    def __init__(self, derivative: GradedIntMatrix):
        self.derivative = derivative
        self.grade_sizes = derivative.grade_sizes
        self.offsets = []
        off = 0
        for n in self.grade_sizes:
            self.offsets.append(off)
            off += n
        self.size = off
        blocks = derivative.blocks
        # D holds each d_p and its transpose, in blocks of different grades
        # that never overlap; columns[p] holds d_p by column, {col: {row: v}}
        dirac: dict = {}
        columns = []
        for p, blk in enumerate(blocks):
            ro, co = self.offsets[p + 1], self.offsets[p]
            cols: dict = {}
            for i, row in blk.rows.items():
                drow = dirac.setdefault(ro + i, {})
                for j, v in row.items():
                    drow[co + j] = v
                    dirac.setdefault(co + j, {})[ro + i] = v
                    cols.setdefault(j, {})[i] = v
            columns.append(cols)
        self.dirac = SparseIntMatrix(off, off, dirac)
        # L_p = d_p^T d_p + d_(p-1) d_(p-1)^T is the sum of v v^T over the
        # rows v of d_p and the columns v of d_(p-1)
        self.laplacian_blocks = []
        for p, n in enumerate(self.grade_sizes):
            vectors = list(blocks[p].rows.values()) if p < len(blocks) else []
            if p > 0:
                vectors.extend(columns[p - 1].values())
            self.laplacian_blocks.append(SparseIntMatrix(n, n, _gram(vectors)))

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
