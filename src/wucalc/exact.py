"""Exact integer and rational linear algebra.

Everything in this module but dense_array() and the GF(q) certificate
(gram_entries(), envelope(), rank_mod()) runs on arbitrary-precision
integers, so ranks, determinants and kernels come out exact. Those import
numpy in their own bodies, and nothing else in the package imports it at
module level, so the exact routes never touch a float nor pay its load time.

One sparse elimination, pivot_rows(), the left-looking "standard reduction"
of Bauer, Kerber, Reininghaus and Wagner (PHAT, JSC 2017), serves the
streamed derivative ranks of cohomology.incident_ranks, rank(), nullity()
and kernel_basis(), whose back-substitution runs through its rows.

det_bareiss() stays a separate fraction-free elimination without any gcd
rescaling: the determinant value itself is the result. A row that a pivot
step leaves alone keeps the pivot it was last written under, base[i]; its
Bareiss entries a[i][j] * prev // base[i] are minors of the input
(Sylvester's identity, Bareiss 1968), so exact, and formed only when read.

rank_mod() stays separate: a blocked LDL^T over GF(q) with no pivoting,
it gives only a lower bound on the rational rank, fast, which on a
positive-semidefinite Gram block L_p = M_p^T M_p is the rank unless q
divides a pivot. It reads L_p only as gram_entries(M_p), as the spectra
do, and stores only a window of its reverse Cuthill-McKee band
(envelope(); 478 for the 1,376 columns of three_sphere's L_4 at k=2): an
LDL^T with no pivoting fills nothing outside the envelope (George and
Liu, 1981). Every sum of residues is an integer below 2**53 (see _TERMS),
exact in any BLAS order. cohomology.laplacian_nullities trusts the count
only under a certificate that closes the gap from above.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

# rank_mod() works over GF(_MODULUS), the largest prime below 2**22, one
# panel of _PANEL indices at a time, on residues of magnitude at most _HALF;
# a trailing entry is reduced every _TERMS products (64 panels of 32)
_MODULUS = 4194301
_PANEL = 32
_HALF = _MODULUS // 2 + 1
_TERMS = 2048
assert _HALF + _TERMS * _HALF ** 2 < 2 ** 53

# the most entries (1 GiB of float64) of a dense block that check_dense()
# admits and of the window of one that a caller hands rank_mod()
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


def pivot_rows(leads, build) -> dict:
    """An echelon basis of the row space of leads, as {leading column: row};
    every entry of a row sits at or right of its leading column.

    leads yields (leading column, row) in reduction order, a row being a
    dict {column: value} or a key whose row build(key) makes as a new dict.
    Left-looking reduction: a row whose leading column is free is stored
    there as it came; any other row is copied or built once and reduced by
    the stored pivots (a stored key is built in place on first use) until
    it vanishes or leads at a free column. When it has the smaller
    (|leading entry|, length) it takes the stored row's place and a copy
    of that row is reduced instead, so no dict of leads is ever changed;
    nor may a caller change the rows returned.
    """
    pivots: dict = {}
    for c, row in leads:
        owned = False
        while True:
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            if not isinstance(prow, dict):
                pivots[c] = prow = build(prow)
            if not isinstance(row, dict):
                row, owned = build(row), True
            if (abs(row[c]), len(row)) < (abs(prow[c]), len(prow)):
                pivots[c], row, prow = row, prow, row
                owned = False
            if not owned:
                row, owned = dict(row), True
            _eliminate(row, prow, c)
            if not row:
                break
            c = min(row)
    return pivots


def _leads(m: SparseIntMatrix):
    """(leading column, row) for each non-empty row of m, in m.rows order."""
    return ((min(row), row) for row in m.rows.values() if row)


def rank(m: SparseIntMatrix) -> int:
    """Exact rank over the rationals by sparse integer elimination."""
    return len(pivot_rows(_leads(m), dict))


def nullity(m: SparseIntMatrix) -> int:
    return m.ncols - rank(m)


def check_dense(nrows: int, ncols: int):
    """Raise ValueError when a dense nrows x ncols copy would have more than
    MAX_DENSE_ENTRIES entries; a shape is enough, so a caller can refuse
    before it builds the block."""
    if nrows * ncols > MAX_DENSE_ENTRIES:
        raise ValueError(f"a {nrows} x {ncols} block exceeds the dense "
                         f"budget of {MAX_DENSE_ENTRIES} entries")


def _coo(m: SparseIntMatrix, dtype):
    """(row lengths, rows, columns, values of dtype) of m in m.rows order."""
    import numpy

    rows, i64 = m.rows, numpy.int64
    lens = numpy.fromiter(map(len, rows.values()), i64, len(rows))
    cols, vals = (chain.from_iterable(map(f, rows.values()))
                  for f in (dict.keys, dict.values))
    return (lens, numpy.repeat(numpy.fromiter(rows, i64, len(rows)), lens),
            numpy.fromiter(cols, i64, lens.sum()),
            numpy.fromiter(vals, dtype, lens.sum()))


def dense_array(m: SparseIntMatrix):
    """m as a dense float64 numpy array, checked by check_dense() before
    any allocation."""
    import numpy

    check_dense(m.nrows, m.ncols)
    a = numpy.zeros((m.nrows, m.ncols))
    _, ii, jj, vals = _coo(m, float)
    a[ii, jj] = vals
    return a


def gram_entries(m: SparseIntMatrix):
    """The non-zero entries (n = m.ncols, rows, columns, values) of m^T m as
    int64 arrays sorted by row then column: the products of each pair of
    entries in a row of m, summed per (row, column); exact while the row
    count times the largest |entry|^2 is below 2**63, else OverflowError."""
    import numpy

    lens, _, cols, vals = _coo(m, numpy.int64)
    if vals.size and int(abs(vals).max()) ** 2 * len(lens) >= 2 ** 63:
        raise OverflowError(f"the Gram entries of {m} may exceed int64")
    # pair t joins entry a[t] with entry b[t] of its row
    reps = numpy.repeat(lens, lens)
    a = numpy.repeat(numpy.arange(cols.size), reps)
    b = (numpy.repeat(numpy.cumsum(lens) - lens, lens) - numpy.cumsum(reps)
         + reps)[a] + numpy.arange(a.size)
    key, prod = cols[a] * m.ncols + cols[b], vals[a] * vals[b]
    del a, b  # the pairs are the largest arrays here: free them first
    order = key.argsort()
    key, prod = key[order], prod[order]
    cut = numpy.flatnonzero(numpy.diff(key, prepend=-1))  # each key's first
    sums = numpy.add.reduceat(prod, cut)
    key = key[cut[sums != 0]]
    return m.ncols, key // m.ncols, key % m.ncols, sums[sums != 0]


def _reduce(x, buf):
    """x reduced in place mod q = _MODULUS to residues of magnitude at most
    q / 2 + 1, buf's front as scratch: for integers |x| < 2**53, x * (1 / q)
    is within 2 / q of x / q, so its rounding k leaves |x - k q| <= q / 2 + 1,
    all exact. numpy.fmod's long division is many times slower here."""
    import numpy

    t = buf[:x.size].reshape(x.shape)
    numpy.rint(numpy.multiply(x, 1.0 / _MODULUS, out=t), out=t)
    x -= numpy.multiply(t, _MODULUS, out=t)
    return x


def _rcm(ptr, adj):
    """The reverse Cuthill-McKee order (Cuthill and McKee, 1969) of the graph
    with the ascending neighbours adj[ptr[i]:ptr[i + 1]] of each vertex i:
    each component breadth first from a vertex of least degree, unseen
    neighbours by ascending (degree, index), then reversed."""
    degree = [b - a for a, b in zip(ptr, ptr[1:])]
    order, seen, k = [], [False] * len(degree), 0
    for s in sorted(range(len(degree)), key=degree.__getitem__):
        if not seen[s]:
            seen[s] = True
            order.append(s)
        while k < len(order):
            v = order[k]
            near = [j for j in adj[ptr[v]:ptr[v + 1]] if not seen[j]]
            near.sort(key=degree.__getitem__)  # stable: ties stay by index
            for j in near:
                seen[j] = True
            order += near
            k += 1
    return order[::-1]


def envelope(entries):
    """(side of rank_mod's window, panels) for the entries of a symmetric
    matrix as gram_entries() gives them, or ValueError. A panel [c0, c0 +
    _PANEL) reaches to hi, one past the last column of its rows and all
    before; the side is the widest hi - c0 plus 2 _PANEL, at most n. Each
    panel is (c0, hi, rows, columns, residues) of the entries, in RCM
    positions, whose larger index the window takes in there."""
    import numpy

    n, ii, jj, vals = entries
    key, back = ii * n + jj, jj * n + ii  # back: the transposed entries
    at = numpy.minimum(key.searchsorted(back), key.size - 1)
    if (key[at] != back).any() or (vals[at] != vals).any():
        raise ValueError(f"rank_mod needs a symmetric {n} x {n} matrix")
    q, h = _MODULUS, _MODULUS // 2
    ptr, adj = ii.searchsorted(numpy.arange(n + 1)).tolist(), jj.tolist()
    pos = numpy.argsort(_rcm(ptr, adj))  # the RCM position of each index
    ii, jj, vals = pos[ii], pos[jj], ((vals + h) % q - h).astype(float)
    last = numpy.zeros(n, dtype=numpy.int64)  # each row's last column
    numpy.maximum.at(last, ii, jj)
    c0 = numpy.arange(0, n, _PANEL)
    c1 = numpy.minimum(c0 + _PANEL, n)
    his = numpy.maximum(numpy.maximum.accumulate(last)[c1 - 1] + 1, c1)
    key = numpy.maximum(ii, jj)
    order = numpy.argsort(key)
    cuts = numpy.searchsorted(key[order], his[:-1])
    return (min(n, int((his - c0).max(initial=0)) + 2 * _PANEL),
            list(zip(c0.tolist(), his.tolist(), *(
                numpy.split(x[order], cuts) for x in (ii, jj, vals)))))


def rank_mod(env) -> int:
    """The order of a principal submatrix of a symmetric integer matrix,
    given as its envelope() (read by the caller for the window side), that
    is non-singular mod _MODULUS; see the module docstring.

    One panel of _PANEL indices at a time: factor its diagonal block in
    int64 beside an identity, which becomes L11^-1 on the kept indices, form
    U12 = L11^-1 A12 with one product, and update A22 -= U12^T D^-1 U12 in
    place on the band that the panel's envelope spans, through one buffer,
    in row blocks that start at a panel start, from their first column on:
    no row is read left of its panel start. The band lives in the window a,
    index x standing for base + x, which moves down in row blocks no taller
    than the move, so it is never copied whole."""
    side, panels = env
    import numpy

    q, step = _MODULUS, _PANEL * max(1, 128 // _PANEL)
    a, buf = numpy.zeros((side, side)), numpy.empty(step * side)
    base = top = rank = terms = 0
    for c0, hi, ri, ci, vals in panels:
        if hi > base + side:
            d, k = c0 - base, top - c0
            for r in range(0, k, d):
                e = min(r + d, k)
                a[r:e, :k] = a[r + d:e + d, d:d + k]
            a[k:] = 0
            a[:k, k:] = 0
            base = c0
        a[ri - base, ci - base] = vals
        top = hi
        # from here on c0, c1 and hi are window indices; the last hi is n
        c0, c1, hi = c0 - base, min(c0 + _PANEL, hi) - base, hi - base
        w = c1 - c0
        band = _reduce(a[c0:c1, c0:hi], buf)
        fac = numpy.hstack([band[:, :w], numpy.eye(w)]).astype(numpy.int64)
        piv, invs = [], []
        for j in range(w):
            # row j of the Schur complement is also its column: the rows
            # below take their multipliers from it
            r = fac[j]
            r %= q
            if r[j]:
                piv.append(j)
                invs.append(pow(int(r[j]), -1, q))
                fac[j + 1:] -= (r[j + 1:w] * invs[-1] % q)[:, None] * r
        rank += len(piv)
        if not piv or hi == c1:
            continue
        u12 = _reduce(fac[piv, w:] @ band[:, w:], buf)
        scaled = _reduce(u12 * numpy.array(invs)[:, None], buf)
        reduce = terms + len(piv) > _TERMS
        terms = (0 if reduce else terms) + len(piv)
        for r in range(0, hi - c1, step):
            x = a[c1:hi, c1:hi][r:r + step, r:]
            if reduce:
                _reduce(x, buf)
            x -= numpy.matmul(u12[:, r:r + step].T, scaled[:, r:],
                              out=buf[:x.size].reshape(x.shape))
    return rank


def det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free Bareiss elimination: the pivot is the smallest-magnitude
    non-zero entry of the current column (ties by row index), rows are
    swapped with sign bookkeeping, and every 2x2 update is divided by the
    previous pivot, which is an exact integer division.

    A row with a zero multiplier is not rescaled by pk / prev: it keeps the
    pivot base[i] it was last written under, and its Bareiss entries, each
    a minor of the input and so an integer, are a[i][j] * prev // base[i],
    read only for the pivot search, the pivot row and the final entry. A
    row with a non-zero multiplier aik takes a[i][j] * pk // base[i] -
    aik * rowk[j] // prev: the exact difference is a minor, an integer, so
    the two fractional parts cancel. Pivots and swaps are the eager ones.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    base = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        best = None
        for i in range(k, n):
            v = a[i][k]
            if v:
                if base[i] != prev:
                    v = v * prev // base[i]
                if best is None or abs(v) < best:
                    best = abs(v)
                    piv = i
                    if best == 1:
                        break
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            base[k], base[piv] = base[piv], base[k]
            sign = -sign
        rowk = a[k]
        if base[k] != prev:
            rowk = [x * prev // base[k] for x in rowk]
        pk = rowk[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            if aik:
                b = base[i]
                if b == prev:
                    for j in range(k + 1, n):
                        ai[j] = (ai[j] * pk - aik * rowk[j]) // prev
                else:
                    aik = aik * prev // b
                    for j in range(k + 1, n):
                        ai[j] = ai[j] * pk // b - aik * rowk[j] // prev
                base[i] = pk
        prev = pk
    return sign * (a[n - 1][n - 1] * prev // base[n - 1])


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
    rows = pivot_rows(_leads(m), dict)
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
