"""Exact integer and rational linear algebra.

Everything in this module but rank_mod() and dense_array() runs on
arbitrary-precision integers, so ranks, determinants and kernels come out
exact; the numeric side of the package lives in dynamics.py. Those two
functions import numpy in their own bodies, and nothing else in the package
imports it at module level: Betti vectors, Wu characteristics, Lefschetz
numbers and Kuenneth checks never touch a float, and loading numpy takes a
one-shot command longer than all of its mathematics.

One sparse elimination, the left-looking "standard reduction" of Bauer,
Kerber, Reininghaus and Wagner (PHAT, JSC 2017), serves rank(),
pivot_columns(), nullity() and kernel_basis(). It reduces each row by the
pivot rows stored so far and stores a row that needs no reduction by
reference, so a matrix is neither copied nor indexed by column. Its
traffic has +-1 entries: the derivative blocks, after clearing (see
cohomology) almost only apparent pivots, and the stacked derivative whose
kernel is the harmonic forms (see cohomology.harmonic_basis). The stored
rows are an echelon basis of the row space, so their leading columns are
the Gauss-Jordan pivot columns and back-substitution through them yields
the unique reduced-echelon kernel basis.

det_bareiss() stays a separate fraction-free elimination without any row
scaling: the determinant value itself is the result, and gcd rescaling
would change it.

rank_mod() stays separate because it gives only a lower bound on the
rational rank (q may divide a minor), fast: a dense blocked elimination
over GF(q) in numpy floats, suited to the filled-in Laplacian blocks, whose
every intermediate is an integer below 2**53, so its arithmetic is exact. A
caller trusts it only under a certificate that closes the gap from above,
as cohomology.laplacian_nullities does.
"""

from __future__ import annotations

from math import gcd

# rank_mod() works over GF(_MODULUS), the largest prime below 2**22, one
# panel of _PANEL columns at a time; these are constants, not tuning knobs
_MODULUS = 4194301
_PANEL = 32
# the largest sum rank_mod() forms: one residue plus _PANEL products of two
assert (_MODULUS - 1) + _PANEL * (_MODULUS - 1) ** 2 < 2 ** 53

# the most entries of a dense float64 copy of one block (1 GiB) that
# dense_array() makes and that a caller may hand to rank_mod()
MAX_DENSE_ENTRIES = 2 ** 27


class SparseIntMatrix:
    """Integer matrix stored as a dict of sparse rows {row: {col: value}}."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    def triples(self):
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                yield i, j, row[j]

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def is_zero(self):
        return not self.rows

    def matmul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        out = SparseIntMatrix(self.nrows, other.ncols)
        brows = other.rows
        for i, row in self.rows.items():
            acc: dict = {}
            for j, v in row.items():
                brow = brows.get(j)
                if not brow:
                    continue
                for k, w in brow.items():
                    acc[k] = acc.get(k, 0) + v * w
            acc = {k: w for k, w in acc.items() if w}
            if acc:
                out.rows[i] = acc
        return out

    def to_dense(self):
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            for j, v in row.items():
                dense[i][j] = v
        return dense

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def _eliminate(row, prow, c):
    """Clear column c of row, in place, by a multiple of prow, whose leading
    entry sits at c, first scaling row by the least integer that makes that
    multiple integral; then divide row by its content."""
    p, v = prow[c], row[c]
    if v % p == 0:
        beta = -(v // p)
    else:
        g = gcd(p, v)
        for j in row:
            row[j] *= p // g
        beta = -(v // g)
    for j, w in prow.items():
        nv = row.get(j, 0) + beta * w
        if nv:
            row[j] = nv
        else:
            del row[j]
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def pivot_rows(m: SparseIntMatrix) -> dict:
    """An echelon basis of the row space of m, as {leading column: row};
    every entry of a row sits at or right of its leading column.

    Left-looking reduction, one row at a time in m.rows order: a row whose
    leading column holds no stored pivot row becomes the pivot there, by
    reference; any other row is copied once and reduced by the stored
    pivots until it vanishes or leads at a free column. When the incoming
    row has the smaller (|leading entry|, length) it takes the stored row's
    place, and a copy of the stored row is reduced instead, so no row of m
    is ever changed; nor may a caller change the rows returned.
    """
    pivots: dict = {}
    for row in m.rows.values():
        owned = False
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            if (abs(row[c]), len(row)) < (abs(prow[c]), len(prow)):
                pivots[c], row, prow = row, prow, row
                owned = False
            if not owned:
                row = dict(row)
                owned = True
            _eliminate(row, prow, c)
    return pivots


def pivot_columns(m: SparseIntMatrix):
    """The pivot columns of m's echelon form, ascending: linearly
    independent columns of m that span its column space."""
    return sorted(pivot_rows(m))


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals by sparse integer elimination."""
    return len(pivot_rows(m))


def nullity(m: SparseIntMatrix) -> int:
    return m.ncols - rank(m)


def check_dense(nrows: int, ncols: int):
    """Raise ValueError when a dense nrows x ncols copy would have more than
    MAX_DENSE_ENTRIES entries; a shape is enough, so a caller can refuse
    before it builds the block."""
    if nrows * ncols > MAX_DENSE_ENTRIES:
        raise ValueError(f"a {nrows} x {ncols} block exceeds the dense "
                         f"budget of {MAX_DENSE_ENTRIES} entries")


def dense_array(m: SparseIntMatrix):
    """m as a dense float64 numpy array, checked by check_dense() before
    any allocation."""
    import numpy

    check_dense(m.nrows, m.ncols)
    a = numpy.zeros((m.nrows, m.ncols))
    for i, row in m.rows.items():
        a[i, list(row)] = list(row.values())
    return a


def _reduce(x, rint):
    """x mod _MODULUS as residues of magnitude at most _MODULUS / 2 + 1;
    rint is numpy.rint, which rank_mod() hands over.

    For integers |x| < 2**53, x * (1 / q) is within 2 / q of x / q, so its
    rounding k leaves |x - k q| <= q / 2 + 1, and k q and x - k q are
    integers below 2**53, computed exactly. numpy.fmod gives the same
    residue class but runs a bitwise long division whose cost grows with
    x / q, which makes it many times slower on the trailing sums near 2**49.
    """
    return x - rint(x * (1.0 / _MODULUS)) * _MODULUS


def rank_mod(m: SparseIntMatrix) -> int:
    """Rank of an integer matrix over GF(_MODULUS): a lower bound on its
    rational rank, equal to it unless _MODULUS divides the relevant minors.

    Right-looking LU on a dense float64 array of residues, one panel of
    _PANEL columns at a time. Inside the panel each pivot row is scaled to a
    unit pivot and eliminated from the live rows only (the free rows
    non-zero in its column), leaving the multipliers in place of the cleared
    entries. The panel's pivot rows then get their trailing part U12 by
    forward substitution, and the live rows below take one BLAS update
    A22 -= L21 @ U12.
    """
    # Exactness: residues stay below q in magnitude, so every product is
    # below q**2 and every sum, a residue minus at most _PANEL products, is
    # an integer below 2**53 (the assert at the top of the module). Each
    # partial sum is then exact, and the rank does not depend on BLAS
    # summation order, FMA or threads.
    q = _MODULUS
    if not m.rows:
        return 0
    import numpy

    rint = numpy.rint
    a = numpy.zeros((m.nrows, m.ncols))
    for i, row in m.rows.items():
        a[i, list(row)] = [v % q for v in row.values()]
    rest = numpy.arange(m.nrows)        # rows not yet chosen as pivots
    rank = 0
    for c0 in range(0, m.ncols, _PANEL):
        c1 = min(c0 + _PANEL, m.ncols)
        # the panel, transposed so that each of its columns is contiguous
        pan = a[rest, c0:c1].T.copy()
        free = numpy.ones(rest.size, dtype=bool)
        piv, cols, invs = [], [], []
        for j in range(c1 - c0):
            hits = numpy.flatnonzero((pan[j] != 0) & free)
            if not hits.size:
                continue
            h, live = hits[0], hits[1:]
            inv = pow(int(pan[j, h]) % q, q - 2, q)
            if live.size and j + 1 < c1 - c0:
                unit = _reduce(pan[j + 1:, h] * inv, rint)
                pan[j + 1:, live] = _reduce(
                    pan[j + 1:, live] - numpy.outer(unit, pan[j, live]), rint)
            free[h] = False
            piv.append(h)
            cols.append(j)
            invs.append(inv)
        rank += len(piv)
        if not piv:
            continue
        prows, rest = rest[piv], rest[free]
        if not rest.size or c1 == m.ncols:
            break
        u12 = a[prows, c1:]
        l11 = pan[numpy.ix_(cols, piv)].T
        for k, inv in enumerate(invs):
            if k:
                u12[k] = _reduce(u12[k] - l11[k, :k] @ u12[:k], rint)
            u12[k] = _reduce(u12[k] * inv, rint)
        l21 = pan[numpy.ix_(cols, numpy.flatnonzero(free))].T
        hit = numpy.flatnonzero(l21.any(axis=1))
        if hit.size:
            live = rest[hit]
            a[live, c1:] = _reduce(a[live, c1:] - l21[hit] @ u12, rint)
    return rank


def det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Bareiss elimination: the pivot is the smallest-magnitude
    non-zero entry of the current column (ties by row index), rows are
    swapped with sign bookkeeping, and every 2x2 update is divided by the
    previous pivot, which is an exact integer division.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        best = None
        for i in range(k, n):
            v = a[i][k]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                piv = i
                if best == 1:
                    break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        rowk = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            if aik:
                for j in range(k + 1, n):
                    ai[j] = (ai[j] * pk - aik * rowk[j]) // prev
                ai[k] = 0
            elif pk != prev:
                for j in range(k + 1, n):
                    ai[j] = (ai[j] * pk) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def kernel_basis(m: SparseIntMatrix):
    """Exact kernel of an integer matrix, as primitive integer vectors whose
    first non-zero entry is positive.

    One basis vector per free (non-pivot) column f, ordered by ascending f:
    the kernel vector that is 1 at f and 0 at every other free column, which
    is the reduced-echelon basis Gauss-Jordan gives, so the result is
    deterministic and depends only on the row space of m. Its last non-zero
    entry sits at f, because a pivot row only reaches columns right of its
    pivot. Each vector is found by integer back-substitution through the
    rows of pivot_rows().
    """
    rows = pivot_rows(m)
    pivots = sorted(rows.items())
    basis = []
    for f in range(m.ncols):
        if f in rows:
            continue
        # x is the kernel vector scaled to integers; pivots right of f
        # only see zeros of x, so their entries stay 0
        x = {f: 1}
        for c, prow in reversed(pivots):
            if c > f:
                continue
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if not s:
                continue
            p = prow[c]
            scale = abs(p) // gcd(s, p)
            if scale != 1:
                for j in x:
                    x[j] *= scale
                s *= scale
            x[c] = -s // p
        # every entry of x is non-zero; divide it by its signed content
        g = 0
        for v in x.values():
            g = gcd(g, v)
        if x[min(x)] < 0:
            g = -g
        vec = [0] * m.ncols
        for j, v in x.items():
            vec[j] = v // g
        basis.append(vec)
    return basis
