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
The walk hands each prefix to its consumer together with the candidate
bitset of the last slot, so build_basis expands the last slot into tuples
while the dimension-profile counts, and the Wu characteristic which is
their signed sum, never materialize tuples: their innermost sum is a
popcount.

Everything accepts any object implementing the small cell interface of
simplicial.Complex (cells, cell_dim, cell_boundary, cell_support,
flat_key), which is how ring.ProductComplex reuses this machinery; the
complexes of one call are all of one kind.
"""

from __future__ import annotations

from .simplicial import Complex, f_vector


def _bits(m):
    while m:
        lsb = m & -m
        yield lsb.bit_length() - 1
        m ^= lsb


class _IntersectionContext:
    """Bitset tables for common-intersection queries across k complexes."""

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
        self.full = []       # per system: all-ones cell bitset
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
            self.full.append((1 << len(cells)) - 1)
            self.dim_masks.append(dmask)
            self.inc.append(inc)

    def candidates(self, t, running):
        """Bitset of cells of system t whose support meets the atom bitset
        running; every cell when running is None (nothing chosen yet)."""
        if running is None:
            return self.full[t]
        u = 0
        inc = self.inc[t]
        for a in _bits(running):
            u |= inc.get(a, 0)
        return u


class InteractionBasis:
    """Commonly intersecting k-tuples of cells, graded by total dimension."""

    def __init__(self, systems, grades, index):
        self.systems = systems
        self.grades = grades          # grades[p] = ordered list of tuples
        self.index = index            # tuple -> position in its grade

    def grade_sizes(self):
        return [len(g) for g in self.grades]

    def __repr__(self):
        return (f"InteractionBasis(k={len(self.systems)}, "
                f"grade_sizes={self.grade_sizes()})")


def _walk(ctx):
    """Yield (parts, dsum, last) for every tuple parts of cells for the
    first k-1 slots with a non-empty common intersection: dsum is their
    total dimension and last the candidate bitset of the final system.
    Prefixes come in depth-first order over ascending cell ids."""
    k = len(ctx.systems)
    cell_lists, dims, sup_bits = ctx.cell_lists, ctx.dims, ctx.sup_bits

    def rec(j, parts, running, dsum):
        cand = ctx.candidates(j, running)
        if j == k - 1:
            yield parts, dsum, cand
            return
        for idx in _bits(cand):
            sup = sup_bits[j][idx]
            yield from rec(j + 1, parts + (cell_lists[j][idx],),
                           sup if running is None else running & sup,
                           dsum + dims[j][idx])

    return rec(0, (), None, 0)


def build_basis(complexes) -> InteractionBasis:
    """Enumerate all ordered k-tuples with common intersection, graded.

    k=1 gives all cells graded by dimension. Within a grade, tuples are
    sorted lexicographically by the concatenation of their parts' vertex
    tuples (with the structured parts as a tie-break), which fixes every
    downstream matrix layout.
    """
    systems = list(complexes)
    ctx = _IntersectionContext(systems)
    last_cells, last_dims = ctx.cell_lists[-1], ctx.dims[-1]
    by_grade: dict = {}
    for parts, dsum, last in _walk(ctx):
        for idx in _bits(last):
            by_grade.setdefault(dsum + last_dims[idx], []).append(
                parts + (last_cells[idx],))
    grades = [by_grade.get(p, []) for p in range(max(by_grade, default=-1) + 1)]
    flat_key = systems[0].flat_key  # the systems of one call are of one kind

    def sort_key(t):
        keys = tuple(map(flat_key, t))
        return (sum(keys, ()), keys)

    index = {}
    for tuples in grades:
        tuples.sort(key=sort_key)
        for pos, t in enumerate(tuples):
            index[t] = pos
    return InteractionBasis(systems, grades, index)


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
    cell_dim = systems[0].cell_dim  # the systems of one call are of one kind
    counts: dict = {}
    for parts, _, last in _walk(ctx):
        profile = tuple(map(cell_dim, parts))
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


def eval_multivariate(poly: dict, values) -> int:
    total = 0
    for expo, coeff in poly.items():
        term = coeff
        for e, v in zip(expo, values):
            term *= v ** e
        total += term
    return total


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
