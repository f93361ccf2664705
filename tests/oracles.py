"""Independent reference implementations used to validate the package.

Everything here is written against the definitions directly, with none of
the package's star-list or sparse-elimination machinery: tuples come from
itertools, derivatives are dense sign sums, ranks come from Gaussian
elimination over GF(p) for two 31-bit primes (which must agree), and the
small dense helpers work over Fractions. Slow on purpose.

sparse_from_dense, matrix_entries, integer_rank, pivot_columns,
uncleared_betti, coboundary_assembler and laplacian_is_block_diagonal wrap
the package's own types for the tests that need them; pivot_columns left
the library with its last caller there, the rank of a built derivative,
and matrix_entries gives a SparseIntMatrix the one input form of
exact.envelope. tuple_grades and
tuple_index decode the codes of an InteractionBasis into tuples of cells,
and _signed_permutation maps every decoded tuple under an automorphism:
lefschetz_trace takes its trace on the harmonic forms by the definition,
which wucalc.lefschetz, acting on codes, is checked against.
_bits, _IntersectionContext and _walk are the bitset tuple walk that
build_basis ran before its star lists, kept unchanged: walk_codes gives
the basis codes by it, and walk_profile_counts the counts that the face
count of basis.profile_counts replaced. _bracket_rhs and
two_product_lax_deform are the Lax flow that dynamics.lax_deform ran
before it read B off a fixed sign pattern, kept unchanged: two products
per RK4 stage and a re-symmetrization of D after every step.
dense_det_bareiss is the Bareiss determinant that exact.det_bareiss
computed before it scaled its rows lazily, kept unchanged: every row is
rescaled at every pivot step. lazy_row_det_bareiss is the one that
followed it, kept unchanged: a row with a zero multiplier keeps its base,
but every row the pivot reaches is rewritten over all later columns; then
exact.det_bareiss kept a base per entry. dict_rcm is the reverse
Cuthill-McKee order that exact._rcm took from a dict of neighbour lists,
sorting each, before it walked the ascending CSR lists of exact.envelope,
kept unchanged. The
six helpers after laplacian_is_block_diagonal (graph_from_edges to
heat_trace) left the library because only tests call them; all but
eval_multivariate wrap package types too: Graph, the catalog, the
DiracLaplacian and cohomology_data. numpy, wucalc.differential and wucalc.cohomology are
imported in the bodies of the helpers that use them, so importing this
module loads no more than importing wucalc does, and no numpy: the
command-line benchmark imports it in its timed set-up.
"""

import itertools
from fractions import Fraction
from math import gcd, prod
from operator import mul

from wucalc import exact
from wucalc.catalog import cycle_complex
from wucalc.exact import SparseIntMatrix
from wucalc.simplicial import Graph, generate_complex

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


def pivot_count_mod(entries, order, p):
    """The non-zero pivots of a symmetric elimination over GF(p) with no
    pivoting and no blocking, taking the indices in the given order: an
    index whose Schur complement diagonal is zero is skipped and eliminates
    nothing. entries is {(row, col): value} of a symmetric matrix."""
    pos = {i: k for k, i in enumerate(order)}
    rows = {}
    for (r, c), v in entries.items():
        if v % p:
            rows.setdefault(pos[r], {})[pos[c]] = v % p
    count = 0
    for k in range(len(order)):
        row = rows.get(k, {})
        if not row.get(k):
            continue
        count += 1
        inv = pow(row[k], -1, p)
        later = [(j, v) for j, v in row.items() if j > k]
        for i, u in later:
            f, target = u * inv % p, rows.setdefault(i, {})
            for j, v in later:
                nv = (target.get(j, 0) - f * v) % p
                if nv:
                    target[j] = nv
                else:
                    target.pop(j, None)
    return count


def dict_rcm(rows, n):
    """The reverse Cuthill-McKee order (Cuthill and McKee, 1969) of the graph
    of the symmetric rows: each component breadth first from a vertex of
    least degree, unseen neighbours by ascending (degree, index), then
    reversed; so the order depends on the matrix, not on its dict order."""
    degree = [len(rows.get(i, ())) for i in range(n)]
    order, seen, k = [], set(), 0
    for s in sorted(range(n), key=degree.__getitem__):
        if s not in seen:
            seen.add(s)
            order.append(s)
        while k < len(order):
            near = sorted(j for j in rows.get(order[k], ()) if j not in seen)
            near.sort(key=degree.__getitem__)  # stable: ties stay by index
            seen.update(near)
            order += near
            k += 1
    return order[::-1]


def simplex_dim(x):
    return len(x) - 1


def product_boundary(cell):
    """Signed faces of a Cartesian cell (a tuple of simplices), as
    (sign, face) pairs: a face of factor i carries its simplex sign times
    -1 to the dimensions of the factors before i."""
    out = []
    pre = 0
    for i, x in enumerate(cell):
        for s, face in simplex_boundary(x):
            out.append(((-1) ** pre * s, cell[:i] + (face,) + cell[i + 1:]))
        pre += len(x) - 1
    return out


def product_dim(cell):
    return sum(len(x) - 1 for x in cell)


def naive_derivative_entries(tuples, boundary=simplex_boundary,
                             dim=simplex_dim):
    """Non-zero entries of the interaction derivative on a basis of tuples,
    as {(tuple, face tuple): value}: the sum over slots j and faces of part
    j of (-1)^(dims of the parts before j) times the face sign, keeping the
    face tuples that are in the basis. boundary and dim give the signed
    faces and the dimension of one part: simplices by default, or
    product_boundary and product_dim for Cartesian cells."""
    basis = set(tuples)
    entries = {}
    for t in tuples:
        pre = 0
        for j in range(len(t)):
            sj = 1 if pre % 2 == 0 else -1
            for s, face in boundary(t[j]):
                ft = t[:j] + (face,) + t[j + 1:]
                if ft in basis:
                    key = (t, ft)
                    entries[key] = entries.get(key, 0) + sj * s
            pre += dim(t[j])
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


def dense_det_bareiss(matrix) -> int:
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


def lazy_row_det_bareiss(matrix) -> int:
    """Exact determinant of a square integer matrix, by the Bareiss
    elimination of dense_det_bareiss with its rows scaled lazily.

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


def tuple_grades(basis):
    """The tuples of cells of each grade of an InteractionBasis, decoded
    from its codes in the pinned layout order, the order of every matrix
    shown."""
    cells = [s.cells for s in basis.systems]
    return [[basis._parts(code, cells) for code in g] for g in basis.layout]


def tuple_index(basis):
    """Tuple of cells -> its position in its grade of tuple_grades."""
    return {t: pos for g in tuple_grades(basis) for pos, t in enumerate(g)}


def _bits(m):
    """The positions of the set bits of m >= 0, ascending. Each step takes
    the 64-bit word that starts at the lowest set bit left, so a dense mask
    of n bits costs n/64 big-int steps, not n."""
    while m:
        base = (m & -m).bit_length() - 1
        w = m >> base & 0xFFFF_FFFF_FFFF_FFFF
        m ^= w << base
        base -= 1
        while w:
            lsb = w & -w
            yield base + lsb.bit_length()
            w ^= lsb


class _IntersectionContext:
    """Bitset tables for common-intersection queries across k complexes."""

    def __init__(self, systems):
        self.systems = list(systems)
        atom_ids: dict = {}
        self.dims = []       # per system: list of cell dimensions
        self.sup_bits = []   # per system: per cell, atom bitset of its support
        self.inc = []        # per system: {atom id: cell bitset}
        for sys in self.systems:
            dims, sups, inc = [], [], {}
            for ci, cell in enumerate(sys.cells):
                bit = 1 << ci
                mask = 0
                for a in sys.cell_support(cell):
                    aid = atom_ids.setdefault(a, len(atom_ids))
                    mask |= 1 << aid
                    inc[aid] = inc.get(aid, 0) | bit
                sups.append(mask)
                dims.append(sys.cell_dim(cell))
            self.dims.append(dims)
            self.sup_bits.append(sups)
            self.inc.append(inc)
        # the running set before the first slot: every cell meets it
        self.all_atoms = (1 << len(atom_ids)) - 1

    def candidates(self, t, running):
        """Bitset of cells of system t whose support meets the atom bitset
        running."""
        u = 0
        inc = self.inc[t]
        for a in _bits(running):
            u |= inc.get(a, 0)
        return u


def _walk(ctx):
    """Yield (ids, dsum, last) for every tuple ids of cell ids for the first
    k-1 slots whose cells have a non-empty common intersection: dsum is
    their total dimension and last the candidate bitset of the final
    system, the cells that meet the running intersection, one OR of
    per-atom incidence bitsets. Prefixes come in depth-first order over
    ascending cell ids. rec is passed to itself, not closed over, so no
    reference cycle keeps ctx alive after the walk."""
    k = len(ctx.systems)
    dims, sup_bits = ctx.dims, ctx.sup_bits

    def rec(rec, j, ids, running, dsum):
        cand = ctx.candidates(j, running)
        if j == k - 1:
            yield ids, dsum, cand
            return
        for idx in _bits(cand):
            yield from rec(rec, j + 1, ids + (idx,),
                           running & sup_bits[j][idx], dsum + dims[j][idx])

    return rec(rec, 0, (), ctx.all_atoms, 0)


def walk_codes(systems):
    """The codes of build_basis, grade by grade in walk order, by the
    bitset walk it replaced, with no tuple budget."""
    ctx = _IntersectionContext(systems)
    radices = [prod(len(s.cells) for s in ctx.systems[j + 1:])
               for j in range(len(ctx.systems))]
    by_grade: dict = {}
    for ids, dsum, last in _walk(ctx):
        base = sum(map(mul, ids, radices))
        for idx in _bits(last):
            by_grade.setdefault(dsum + ctx.dims[-1][idx], []).append(
                base + idx)
    return [by_grade.get(p, []) for p in range(max(by_grade, default=-1) + 1)]


def walk_profile_counts(systems) -> dict:
    """Counts of commonly intersecting tuples keyed by dimension profile,
    by the bitset tuple walk: the counting route that basis.profile_counts
    replaced, kept as its oracle. Tuples are never
    materialized: the last slot is counted by popcounts of its candidate
    bitset against the per-dimension cell bitsets."""
    ctx = _IntersectionContext(systems)
    dmasks = {}
    for ci, d in enumerate(ctx.dims[-1]):
        dmasks[d] = dmasks.get(d, 0) | 1 << ci
    dims = ctx.dims
    counts: dict = {}
    for ids, _, last in _walk(ctx):
        profile = tuple(d[c] for d, c in zip(dims, ids))
        for d, mask in dmasks.items():
            n = (last & mask).bit_count()
            if n:
                key = profile + (d,)
                counts[key] = counts.get(key, 0) + n
    return counts


def _signed_permutation(t, basis):
    """The map the vertex map t induces on the basis tuples, grade by
    grade, as a pair of lists (image, signs): t sends the tuple x at
    position i to signs[i] times the tuple at position image[i] of the same
    grade, where signs[i] is the product of the signs of t on the parts of
    x. Every tuple is decoded and mapped."""
    index = tuple_index(basis)
    out = []
    for grade in tuple_grades(basis):
        image, signs = [], []
        for x in grade:
            image.append(index[tuple(tuple(sorted(t[v] for v in part))
                                     for part in x)])
            sign = 1
            for part in x:
                sign *= cycle_sign(t, part)
            signs.append(sign)
        out.append((image, signs))
    return out


def lefschetz_trace(t, c, k: int) -> Fraction:
    """The Lefschetz number of the automorphism t at order k by its
    definition: the alternating sum over grades of the trace of the signed
    permutation U on the harmonic forms H of the grade. U keeps their span,
    U H = H A, so A = (H^T H)^-1 H^T U H, solved over Fractions."""
    from wucalc.cohomology import cohomology_data

    data = cohomology_data(tuple([c] * k))
    maps = _signed_permutation(t, data.basis)
    total = Fraction(0)
    for p, (kernel, (image, signs)) in enumerate(zip(data.harmonic, maps)):
        if not kernel:
            continue
        moved = []
        for h in kernel:
            u = [0] * len(h)
            for i, v in enumerate(h):
                u[image[i]] = signs[i] * v
            moved.append(u)
        n = len(kernel)
        rows = [[sum(x * y for x, y in zip(a, b)) for b in kernel + moved]
                for a in kernel]
        rref, _ = fraction_rref(rows)
        tr = sum(rref[i][n + i] for i in range(n))
        total += tr if p % 2 == 0 else -tr
    return total


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


def matrix_entries(m):
    """The entries (n, rows, columns, values) of a square SparseIntMatrix m,
    its triples() as int64 arrays sorted by row then column: the form in
    which exact.envelope reads a symmetric matrix from gram_entries()."""
    import numpy

    assert m.nrows == m.ncols, m
    ii, jj, vals = numpy.array(list(m.triples()), numpy.int64).reshape(
        -1, 3).T.copy()
    return m.nrows, ii, jj, vals


def integer_rank(m) -> int:
    """Exact rank over the rationals of an integer matrix (sparse or dense)."""
    if not isinstance(m, SparseIntMatrix):
        m = sparse_from_dense(m)
    return exact.rank(m)


def pivot_columns(m):
    """The pivot columns of m's echelon form, ascending: linearly
    independent columns of m that span its column space."""
    return sorted(exact.pivot_rows(exact._leads(m), dict))


def uncleared_betti(d):
    """b_p = n_p - rank(d_p) - rank(d_(p-1)) of a built GradedIntMatrix,
    each layout-order block ranked whole by exact.rank, with no clearing,
    in the boundary direction where the library streams d_p^T."""
    ranks = [0] + [exact.rank(m) for m in d.blocks] + [0]
    return [n - ranks[p] - ranks[p + 1] for p, n in enumerate(d.grade_sizes)]


def coboundary_assembler(b, codes=None):
    """The function block(p, skip=()) that builds d_p^T of the basis b in
    full, a row per grade-p tuple and a column per grade-(p+1) tuple in the
    order of codes (b.layout unless given), without the rows in skip: every
    row from the row builder of differential.coboundary, keyed by position
    instead of by code, as the streamed Betti route never builds them."""
    from wucalc.differential import coboundary

    _, row = coboundary(b)
    if codes is None:
        codes = b.layout
    position = {code: pos for g in codes for pos, code in enumerate(g)}

    def block(p, skip=()):
        m = SparseIntMatrix(len(codes[p]), len(codes[p + 1]))
        for i, code in enumerate(codes[p]):
            entries = {position[f]: v for f, v in row(code).items()}
            if entries and i not in skip:
                m.rows[i] = entries
        return m

    return block


def laplacian_is_block_diagonal(dl) -> bool:
    """Cross-check that D^2 has no entries between different grades and that
    its diagonal blocks equal the assembled L_p."""
    sq = dl.dirac.matmul(dl.dirac)
    grading = [p for p, n in enumerate(dl.grade_sizes) for _ in range(n)]
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


def graph_from_edges(edges) -> Graph:
    """The graph on the endpoints of the given edges."""
    return Graph({v for e in edges for v in e}, edges)


def two_circles() -> tuple:
    """Two 4-cycles crossing in exactly two vertices."""
    return cycle_complex(4), generate_complex([(1, 5), (3, 5), (3, 6), (1, 6)])


def eval_multivariate(poly: dict, values) -> int:
    """A {exponent tuple: coefficient} polynomial evaluated at values."""
    total = 0
    for expo, coeff in poly.items():
        term = coeff
        for e, v in zip(expo, values):
            term *= v ** e
        total += term
    return total


def supertrace_power(dl, n: int) -> int:
    """Exact supertrace of L^n; vanishes for small n by supersymmetry."""
    total = 0
    for p, block in enumerate(dl.laplacian_blocks):
        power = block
        for _ in range(n - 1):
            power = power.matmul(block)
        tr = sum(row.get(i, 0) for i, row in power.rows.items())
        total += tr if p % 2 == 0 else -tr
    return total


def dirac_spectrum(dl):
    """Eigenvalues of the Dirac matrix D, ascending, in floats."""
    import numpy

    dense = exact.dense_array(dl.dirac)
    if dense.size == 0:
        return numpy.zeros(0)
    return numpy.linalg.eigvalsh(dense)


def _bracket_rhs(d, raising_mask, diagonal_mask):
    """[B(D), D] for B = d - d^T built from the raising part of D, minus
    i times its diagonal part when a diagonal mask is given."""
    import numpy

    raising = numpy.where(raising_mask, d, 0.0)
    b = raising - raising.conj().T
    if diagonal_mask is not None:
        b = b - 1j * numpy.where(diagonal_mask, d, 0.0)
    return b @ d - d @ b


def two_product_lax_deform(dl, mode: str = "real", t_max: float = 1.0,
                           dt: float = 0.01):
    """Integrate D' = [B(D), D] with fourth order Runge-Kutta.

    In real mode B = d - d^T built from the current raising part; the flow
    is isospectral and pushes D toward block diagonal form. Complex mode
    adds -i b and makes the operator genuinely complex. Raises ValueError
    before the dense copy when lax_steps refuses the flow, and
    ArithmeticError on spectral drift beyond ten times the allowed
    tolerance.

    Returns (d, report): d is the deformed Dirac matrix at t_max, report
    carries the drift diagnostics.
    """
    import numpy

    from wucalc.dynamics import lax_steps

    if mode not in ("real", "complex"):
        raise ValueError(f"unknown deformation mode {mode!r}")
    steps = lax_steps(dl.size, t_max, dt)
    grades = numpy.repeat(numpy.arange(len(dl.grade_sizes)), dl.grade_sizes)
    # entries from grade q to grade q + 1, and within one grade
    raising_mask = grades[:, None] == grades[None, :] + 1
    diagonal_mask = None
    d = exact.dense_array(dl.dirac)
    if mode == "complex":
        d = d.astype(complex)
        diagonal_mask = grades[:, None] == grades[None, :]
    norm0 = numpy.linalg.norm(d) or 1.0
    spec0 = numpy.linalg.eigvalsh(d)
    tol = 1e-6 * norm0

    h = t_max / steps
    t = 0.0
    for _ in range(steps):
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
    return d, report


def heat_trace(t: dict, c, k: int, time: float) -> float:
    """Supertrace of exp(-time * L) composed with the map the automorphism t
    induces on the order-k basis of c; it interpolates between the index
    sum (time 0) and the Lefschetz number."""
    import numpy

    from wucalc.cohomology import cohomology_data

    data = cohomology_data(tuple([c] * k))
    maps = _signed_permutation(t, data.basis)
    total = 0.0
    for p, lp in enumerate(data.dirac.laplacian_blocks):
        n = lp.nrows
        if n == 0:
            continue
        dense = exact.dense_array(lp)
        image, signs = maps[p]
        u = numpy.zeros((n, n))
        u[image, numpy.arange(n)] = signs
        evals, q = numpy.linalg.eigh(dense)
        a = q.T @ u @ q
        term = float(numpy.sum(numpy.exp(-time * evals) * numpy.diag(a)))
        total += term if p % 2 == 0 else -term
    return total


def ring_euler_polynomial(e) -> list:
    """Euler polynomial of a ring element: the cell counts of each product
    term, so a term with an empty factor contributes [0]."""
    from wucalc.basis import euler_polynomial
    from wucalc.ring import _term_sum

    return _term_sum(e, euler_polynomial)
