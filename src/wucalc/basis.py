"""Graded bases of simultaneously intersecting simplex tuples.

The interaction basis of complexes (G_1, ..., G_k) consists of all ordered
k-tuples (x_1, ..., x_k), x_j a cell of G_j, whose members share a common
point: x_1 cap ... cap x_k is non-empty. For k = 2 that is the same as
pairwise intersection, for k >= 3 it is strictly stronger (three edges of a
triangle meet pairwise but have empty common intersection). Tuples are
graded by total dimension.

Enumeration works on integer bitsets. Every cell has one support, a set
of atoms: its vertices for a simplex, the vertex tuples of x_1 x ... x x_m
for a product cell, so that product cells meet exactly when every factor
meets, since (x_1 x y_1) cap (x_2 x y_2) = (x_1 cap x_2) x (y_1 cap y_2).
One walk, _walk, chooses the cells of the first k-1 slots one part at a
time while carrying the running intersection of the parts chosen so far,
as one bitset of atoms; the candidates for the next slot are the cells
that meet that running set, obtained by OR-ing per-atom incidence bitsets.
The walk works on cell ids and hands each prefix to its consumer together
with the candidate bitset of the last slot. build_basis expands the last
slot into integer codes: a tuple is stored as the mixed-radix number whose
digit j is the position of x_j in systems[j].cells, so the derivative can
find a face tuple by swapping one digit (see differential). Each grade is
kept in walk order, ascending codes, which the Betti numbers are ranked
in, since a rank over Q does not depend on the order of the basis; the
pinned layout order, which fixes every matrix shown, is derived only for
the routes that read it (InteractionBasis). An automorphism acts on the
codes digit by digit too (see lefschetz), so no route decodes a whole
basis into tuples of cells.
The dimension-profile counts, and the Wu characteristic which is their
signed sum, never materialize tuples: their innermost sum is a popcount.

Everything accepts any object implementing the small cell interface of
simplicial.Complex (cells, cell_dim, cell_boundary, cell_support,
flat_key), which is how ring.ProductComplex reuses this machinery; the
complexes of one call are all of one kind.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .simplicial import Complex, f_vector

# A walk over more intersecting k-tuples than this is refused, since its
# time grows with the count and a basis stores every tuple: on a 2-vCPU host
# the Wu characteristic of two triangles sharing an edge walks at least 6**9
# (about 10**7) tuples at k = 9 in 8.6 s. The star bound of
# _IntersectionContext refuses most such walks before they start, and _walk
# the rest once its count passes the budget.
MAX_TUPLES = 2 ** 24


def _check_budget(count, k):
    if count > MAX_TUPLES:
        raise ValueError(f"at least {count} intersecting {k}-tuples, more "
                         f"than the tuple budget of {MAX_TUPLES}")


def _find(root, a):
    """The root of atom a in the union-find forest root, halving its path."""
    while root.setdefault(a, a) != a:
        root[a] = a = root[root[a]]
    return a


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
    """Bitset tables for common-intersection queries across k complexes.

    Raises ValueError when the star bound, summed over the components of
    the first complex, shows that the walk would yield more than
    MAX_TUPLES tuples, before any tuple is enumerated."""

    def __init__(self, systems):
        if not systems:
            raise ValueError("need at least one complex")
        if len({type(s) for s in systems}) > 1:
            raise ValueError("cannot mix simplicial complexes and cell products")
        self.systems = list(systems)
        self.cell_lists = [list(s.cells) for s in systems]

        atom_ids: dict = {}
        self.dims = []       # per system: list of cell dimensions
        self.sup_bits = []   # per system: per cell, atom bitset of its support
        self.dim_masks = []  # per system: {dim: cell bitset}
        self.inc = []        # per system: {atom id: cell bitset}
        for sys, cells in zip(self.systems, self.cell_lists):
            dims, sups, dmask, inc = [], [], {}, {}
            for ci, cell in enumerate(cells):
                bit = 1 << ci
                mask = 0
                for a in sys.cell_support(cell):
                    aid = atom_ids.setdefault(a, len(atom_ids))
                    mask |= 1 << aid
                    inc[aid] = inc.get(aid, 0) | bit
                sups.append(mask)
                d = sys.cell_dim(cell)
                dims.append(d)
                dmask[d] = dmask.get(d, 0) | bit
            self.dims.append(dims)
            self.sup_bits.append(sups)
            self.dim_masks.append(dmask)
            self.inc.append(inc)
        # the running set before the first slot: every cell meets it
        self.all_atoms = (1 << len(atom_ids)) - 1

        # the cells of each system that contain one atom all meet there, so
        # there are at least prod_j |star of the atom in system j| tuples;
        # tuples counted at atoms in two components of the first system's
        # cells differ in their first cell, so the components' maxima add up
        root: dict = {}
        for mask in self.sup_bits[0]:
            ids = _bits(mask)
            top = _find(root, next(ids))
            for aid in ids:
                root[_find(root, aid)] = top
        least: dict = {}
        for a, cells in self.inc[0].items():
            n = cells.bit_count()
            for inc in self.inc[1:]:
                n *= inc.get(a, 0).bit_count()
            r = _find(root, a)
            least[r] = max(least.get(r, 0), n)
        _check_budget(sum(least.values()), len(systems))

    def candidates(self, t, running):
        """Bitset of cells of system t whose support meets the atom bitset
        running."""
        u = 0
        inc = self.inc[t]
        for a in _bits(running):
            u |= inc.get(a, 0)
        return u


class InteractionBasis:
    """Commonly intersecting k-tuples of cells, graded by total dimension.

    A tuple (x_1, ..., x_k) is stored as one mixed-radix integer code, the
    sum of c_j * radices[j] where c_j is the position of x_j in
    systems[j].cells. codes[p] lists the codes of grade p in walk order,
    ascending, which the Betti route ranks; layout[p] lists them in the
    pinned order of every matrix shown, derived on first read. No tuple of
    cells is stored: _parts decodes a code for the few readers of one."""

    def __init__(self, systems, radices, codes):
        self.systems = systems
        self.radices = radices        # radices[j] = product of later sizes
        self.codes = codes            # codes[p] = grade p in walk order

    def grade_sizes(self):
        return [len(g) for g in self.codes]

    def _parts(self, code, tables):
        """The entries of tables[j] at the digits c_j of code, as a tuple."""
        parts = []
        for table, r in zip(tables, self.radices):
            c, code = divmod(code, r)
            parts.append(table[c])
        return tuple(parts)

    @cached_property
    def layout(self):
        """Each grade sorted by the flat concatenation of its tuples' parts'
        flat_key, then by the parts' keys; ties (product cells can share a
        flat key) keep ascending codes. The first k-1 parts' share of the
        key is built once per prefix, code // n_last."""
        keys = [list(map(s.flat_key, s.cells)) for s in self.systems]
        last_keys = keys[-1]
        n_last = len(last_keys)
        prefix_keys = {}

        def sort_key(code):
            prefix, c = divmod(code, n_last)
            flat_parts = prefix_keys.get(prefix)
            if flat_parts is None:
                parts = self._parts(code - c, keys)[:-1]
                flat_parts = prefix_keys[prefix] = (sum(parts, ()), parts)
            flat, parts = flat_parts
            key = last_keys[c]
            return (flat + key, parts + (key,))

        return [sorted(g, key=sort_key) for g in self.codes]

    def __repr__(self):
        return (f"InteractionBasis(k={len(self.systems)}, "
                f"grade_sizes={self.grade_sizes()})")


def _walk(ctx):
    """Yield (ids, dsum, last) for every tuple ids of cell ids for the first
    k-1 slots whose cells have a non-empty common intersection: dsum is
    their total dimension and last the candidate bitset of the final
    system. Prefixes come in depth-first order over ascending cell ids.
    Raises ValueError once the tuples yielded so far pass MAX_TUPLES."""
    k = len(ctx.systems)
    dims, sup_bits = ctx.dims, ctx.sup_bits
    count = 0

    def rec(j, ids, running, dsum):
        nonlocal count
        cand = ctx.candidates(j, running)
        if j == k - 1:
            count += cand.bit_count()
            _check_budget(count, k)
            yield ids, dsum, cand
            return
        for idx in _bits(cand):
            sup = sup_bits[j][idx]
            yield from rec(j + 1, ids + (idx,), running & sup,
                           dsum + dims[j][idx])

    return rec(0, (), ctx.all_atoms, 0)


def build_basis(complexes) -> InteractionBasis:
    """Enumerate all ordered k-tuples with common intersection, graded.

    k=1 gives all cells graded by dimension. One walk lists the codes of
    each grade in walk order, ascending, and builds no sort key: the Betti
    route ranks that order, and only the routes that show a matrix read the
    pinned order, InteractionBasis.layout, derived on first read.
    """
    systems = list(complexes)
    ctx = _IntersectionContext(systems)
    radices = [1] * len(systems)
    for j in range(len(systems) - 1, 0, -1):
        radices[j - 1] = radices[j] * len(ctx.cell_lists[j])
    last_dims = ctx.dims[-1]
    by_grade: dict = {}
    for ids, dsum, last in _walk(ctx):
        base = sum(map(mul, ids, radices))
        for idx in _bits(last):
            by_grade.setdefault(dsum + last_dims[idx], []).append(base + idx)
    codes = [by_grade.get(p, []) for p in range(max(by_grade, default=-1) + 1)]
    return InteractionBasis(systems, radices, codes)


def wu_characteristic(complexes) -> int:
    """Signed count of ordered k-tuples with non-empty common intersection.

    Sum over tuples of the product of the parts' weights (-1)^dim, that is
    the multivariate Euler polynomial at t_1 = ... = t_k = -1; k=1 is the
    Euler characteristic.
    """
    return sum(-n if sum(profile) % 2 else n
               for profile, n in _profile_counts(list(complexes)).items())


def _profile_counts(systems) -> dict:
    """Counts of commonly intersecting tuples keyed by dimension profile.

    Tuples are never materialized: the last slot is counted by popcounts of
    its candidate bitset against the per-dimension cell bitsets."""
    ctx = _IntersectionContext(systems)
    dmasks = ctx.dim_masks[-1]
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


def f_matrix(c: Complex):
    """V[i][j] = number of intersecting ordered (i-simplex, j-simplex) pairs."""
    return f_tensor(c, 2)


def f_tensor(c: Complex, k: int):
    """Rank-k tensor of intersecting tuple counts by dimension profile.

    Returned as nested lists of shape (dim+1)^k; k=1 reproduces f_vector and
    k=2 the f_matrix.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    counts = _profile_counts([c] * k)
    if not counts:
        return []
    top = max(max(p) for p in counts)

    def build(prefix):
        if len(prefix) == k:
            return counts.get(prefix, 0)
        return [build(prefix + (d,)) for d in range(top + 1)]

    return build(())


def euler_polynomial(c):
    """Coefficient list of sum_p v_p t^p over the cell counts of a Complex
    or ring.ProductComplex; evaluates to chi at t = -1."""
    fv = f_vector(c)
    return list(fv) if fv else [0]


def multivariate_euler_polynomial(c: Complex, k: int) -> dict:
    """Generating function of the f-tensor as {exponent tuple: coefficient}.

    Evaluating at t_1 = ... = t_k = -1 gives the Wu characteristic omega_k.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    return _profile_counts([c] * k)


def polynomial_string(poly: dict) -> str:
    """Human-readable form of a multivariate polynomial dictionary."""
    if not poly:
        return "0"
    k = len(next(iter(poly)))
    varnames = (["t", "s"] if k == 2
                else ["t"] if k == 1
                else [f"t{i + 1}" for i in range(k)])
    terms = []
    for expo in sorted(poly, key=lambda e: (sum(e), e)):
        coeff = poly[expo]
        if coeff == 0:
            continue
        factors = []
        for name, e in zip(varnames, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            terms.append(str(coeff))
        elif coeff == 1:
            terms.append(body)
        elif coeff == -1:
            terms.append(f"-{body}")
        else:
            terms.append(f"{coeff}*{body}")
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
