"""Independent reference implementations used to validate the package.

Everything here is written against the definitions directly, with none of
the package's bitset or sparse-elimination machinery: tuples come from
itertools, derivatives are dense sign sums, ranks come from Gaussian
elimination over GF(p) for two 31-bit primes (which must agree), and the
small dense helpers work over Fractions. Slow on purpose. The last few
helpers wrap the package's own types for the tests that need them.
"""

import itertools
from fractions import Fraction
from math import gcd

from wucalc import exact
from wucalc.exact import SparseIntMatrix

PRIMES = (2147483647, 1000000007)


def power_cells(facets):
    """All simplices of the complex generated by the facet list."""
    out = set()
    for f in facets:
        s = tuple(sorted(set(f)))
        for r in range(1, len(s) + 1):
            out.update(itertools.combinations(s, r))
    return sorted(out, key=lambda c: (len(c), c))


def common_tuples(cell_lists):
    """Ordered tuples, one cell per list, sharing at least one vertex."""
    sets = [{c: frozenset(c) for c in cells} for cells in cell_lists]
    found = []
    for t in itertools.product(*cell_lists):
        inter = sets[0][t[0]]
        for j in range(1, len(t)):
            inter = inter & sets[j][t[j]]
            if not inter:
                break
        if inter:
            found.append(t)
    return found


def common_product_tuples(cell_lists):
    """Ordered tuples of product cells, one cell per list, whose factor
    simplices share a vertex at every factor position: the component-wise
    common point of Cartesian cells."""
    found = []
    for t in itertools.product(*cell_lists):
        if all(frozenset.intersection(*(frozenset(cell[f]) for cell in t))
               for f in range(len(t[0]))):
            found.append(t)
    return found


def naive_wu(facet_lists):
    """Signed count of commonly intersecting tuples, one complex per slot."""
    cell_lists = [power_cells(f) for f in facet_lists]
    total = 0
    for t in common_tuples(cell_lists):
        d = sum(len(p) - 1 for p in t)
        total += 1 if d % 2 == 0 else -1
    return total


def simplex_boundary(x):
    if len(x) == 1:
        return []
    return [((-1) ** i, x[:i] + x[i + 1:]) for i in range(len(x))]


def rank_mod(entries, p):
    """Rank of a sparse integer matrix {(row, col): value} over GF(p)."""
    if not entries:
        return 0
    rows = {}
    for (r, c), v in entries.items():
        if v % p:
            rows.setdefault(r, {})[c] = v % p
    pivots = {}
    rank = 0
    for row in sorted(rows.values(), key=len):
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], p - 2, p)
                row = {cc: (vv * inv) % p for cc, vv in row.items()}
                pivots[c] = row
                rank += 1
                break
            f = row[c]
            for cc, vv in piv.items():
                nv = (row.get(cc, 0) - f * vv) % p
                if nv:
                    row[cc] = nv
                elif cc in row:
                    del row[cc]
    return rank


def naive_derivative_entries(tuples):
    """Non-zero entries of the interaction derivative on a basis of tuples,
    as {(tuple, face tuple): value}: the sum over slots j and faces of part
    j of (-1)^(dims of the parts before j) times the face sign, keeping the
    face tuples that are in the basis."""
    basis = set(tuples)
    entries = {}
    for t in tuples:
        pre = 0
        for j in range(len(t)):
            sj = 1 if pre % 2 == 0 else -1
            for s, face in simplex_boundary(t[j]):
                ft = t[:j] + (face,) + t[j + 1:]
                if ft in basis:
                    key = (t, ft)
                    entries[key] = entries.get(key, 0) + sj * s
            pre += len(t[j]) - 1
    return {key: v for key, v in entries.items() if v}


def naive_interaction_data(facet_lists):
    """Grade sizes and Betti numbers of the interaction complex.

    Builds the full boundary operator tuple-by-tuple, asserts d^2 = 0, and
    takes ranks over the two PRIMES, which must agree.
    """
    cell_lists = [power_cells(f) for f in facet_lists]
    tuples = common_tuples(cell_lists)
    if not tuples:
        return [], []
    tdim = {t: sum(len(p) - 1 for p in t) for t in tuples}
    top = max(tdim.values())
    grades = [[] for _ in range(top + 1)]
    for t in tuples:
        grades[tdim[t]].append(t)
    for g in grades:
        g.sort()
    pos = {}
    for p, g in enumerate(grades):
        for i, t in enumerate(g):
            pos[t] = i

    # boundaries[p - 1] maps grade p to grade p - 1: {(face row, column): v}
    boundaries = [{} for _ in range(top)]
    for (t, ft), v in naive_derivative_entries(tuples).items():
        boundaries[tdim[t] - 1][(pos[ft], pos[t])] = v

    for p in range(len(boundaries) - 1):
        a, b = boundaries[p], boundaries[p + 1]
        cols = {}
        for (r, c), v in a.items():
            cols.setdefault(c, []).append((r, v))
        acc = {}
        for (r, c), v in b.items():
            for rr, vv in cols.get(r, []):
                acc[(rr, c)] = acc.get((rr, c), 0) + v * vv
        # any tuple between two basis tuples is itself in the basis, so
        # the restricted operator must still square to zero
        assert all(v == 0 for v in acc.values()), f"d^2 != 0 at grade {p + 1}"

    sizes = [len(g) for g in grades]
    ranks = []
    for p in range(1, top + 1):
        rs = {rank_mod(boundaries[p - 1], q) for q in PRIMES}
        assert len(rs) == 1, f"rank disagrees between primes at grade {p}"
        ranks.append(rs.pop())
    betti = []
    for p in range(top + 1):
        r_in = ranks[p - 1] if p >= 1 else 0
        r_out = ranks[p] if p < top else 0
        betti.append(sizes[p] - r_in - r_out)
    return sizes, betti


def fraction_rref(rows):
    """Gauss-Jordan over Fractions: the reduced row echelon form of a dense
    matrix and its pivot columns, in ascending order."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    if not m:
        return m, pivots
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def fraction_rank(rows):
    """Exact rank of a dense matrix by Gauss elimination over Fractions."""
    return len(fraction_rref(rows)[1])


def fraction_kernel(rows):
    """Kernel of a dense integer matrix with at least one row: one vector
    per free column f, read off the reduced row echelon form (1 at f, 0 at
    the other free columns), scaled to a primitive integer vector whose
    first non-zero entry is positive."""
    ncols = len(rows[0])
    m, pivots = fraction_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        den = 1
        for x in vec:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append([sign * v // g for v in ints])
    return basis


def fraction_det(rows):
    """Exact determinant by fraction Gauss elimination with row pivoting."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    assert det.denominator == 1
    return det.numerator


def cycle_sign(t, s):
    """Sign of the map from s sorted to its image under the vertex map t
    sorted: the permutation that sorts the image, walked cycle by cycle,
    -1 per cycle of even length."""
    image = [t[v] for v in s]
    ranks = sorted(range(len(image)), key=lambda i: image[i])
    sign = 1
    seen = [False] * len(ranks)
    for i in range(len(ranks)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = ranks[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def fixed_point_indices(t, grades):
    """The tuples of `grades`, in order, that the vertex map t fixes setwise
    in every slot, each with its local index prod_j w(x_j) * sign(t on x_j),
    where w(s) = (-1)^dim s."""
    out = []
    for grade in grades:
        for x in grade:
            if all(frozenset(t[v] for v in part) == frozenset(part)
                   for part in x):
                index = 1
                for part in x:
                    index *= (-1) ** (len(part) - 1) * cycle_sign(t, part)
                out.append((x, index))
    return out


def random_facets(rng, max_vertices=7, max_facets=7, max_size=3):
    """Small random facet list for property tests, deterministic per rng."""
    n = rng.randint(1, max_vertices)
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_size, n))
        facets.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return facets


def charpoly(dense) -> list:
    """Characteristic polynomial det(x*I - A) as integer coefficients.

    Returns [1, c1, ..., cn] for x^n + c1*x^(n-1) + ... + cn, computed by
    the Faddeev-LeVerrier recursion over exact rationals. Raises if the
    input was integral but the result is not (that would be a bug).
    """
    n = len(dense)
    a = [[Fraction(x) for x in row] for row in dense]
    coeffs = [Fraction(1)]
    mk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
          for i in range(n)]
    am = a
    for k in range(1, n + 1):
        if k > 1:
            am = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                  for i in range(n)]
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            mk = [[am[i][j] + (ck if i == j else 0) for j in range(n)]
                  for i in range(n)]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial not integral")
        out.append(int(c))
    return out


def sparse_from_dense(dense):
    """A SparseIntMatrix holding the non-zero entries of a dense matrix."""
    nrows = len(dense)
    ncols = len(dense[0]) if nrows else 0
    m = SparseIntMatrix(nrows, ncols)
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                m.rows.setdefault(i, {})[j] = int(v)
    return m


def integer_rank(m) -> int:
    """Exact rank over the rationals of an integer matrix (sparse or dense)."""
    if not isinstance(m, SparseIntMatrix):
        m = sparse_from_dense(m)
    return exact.rank(m)


def laplacian_is_block_diagonal(dl) -> bool:
    """Cross-check that D^2 has no entries between different grades and that
    its diagonal blocks equal the assembled L_p."""
    sq = dl.dirac.matmul(dl.dirac)
    grading = dl.grading()
    for i, row in sq.rows.items():
        for j in row:
            if grading[i] != grading[j]:
                return False
    for p, lp in enumerate(dl.laplacian_blocks):
        off = dl.offsets[p]
        n = dl.grade_sizes[p]
        for i in range(n):
            srow = sq.rows.get(off + i, {})
            expect = {j - off: v for j, v in srow.items()
                      if off <= j < off + n}
            if expect != lp.rows.get(i, {}):
                return False
    return True
