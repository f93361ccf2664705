"""Graded bases of simultaneously intersecting simplex tuples.

The interaction basis of complexes (G_1, ..., G_k) consists of all ordered
k-tuples (x_1, ..., x_k), x_j a cell of G_j, whose members share a common
point: x_1 cap ... cap x_k is non-empty. For k = 2 that is the same as
pairwise intersection, for k >= 3 it is strictly stronger (three edges of a
triangle meet pairwise but have empty common intersection). Tuples are
graded by total dimension.

Enumeration works on integer bitsets. One walk, _walk, chooses the cells of
the first k-1 slots one part at a time while carrying the running
intersection of the parts chosen so far, as a bitset of vertices; the
candidates for the next slot are the cells that meet that running set,
obtained by OR-ing per-vertex incidence bitsets. The walk hands each prefix
to its consumer together with the candidate bitset of the last slot, so
build_basis expands the last slot into tuples while the Wu characteristic
and the dimension-profile counts never materialize tuples: their innermost
sum is a popcount.

Everything accepts any object implementing the small cell interface of
simplicial.Complex (cells, cell_dim, cell_boundary, cell_support, flat_key,
n_factors), which is how ring.ProductComplex reuses this machinery. A
product cell supports one vertex set per factor position and intersection
is component-wise, so the running intersection is kept per position.
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
        nf = systems[0].n_factors
        if any(s.n_factors != nf for s in systems):
            raise ValueError("all complexes must have the same factor shape")
        self.systems = list(systems)
        self.n_factors = nf
        self.cell_lists = [list(s.cells) for s in systems]
        # identical systems share cached tables
        seen: dict = {}
        self.syskey = []
        for i, s in enumerate(systems):
            self.syskey.append(seen.setdefault(id(s), i))

        atom_ids = [dict() for _ in range(nf)]
        for sys, cells in zip(self.systems, self.cell_lists):
            for cell in cells:
                for f, sup in enumerate(sys.cell_support(cell)):
                    ids = atom_ids[f]
                    for a in sup:
                        if a not in ids:
                            ids[a] = len(ids)

        self.dims = []       # per system: list of cell dimensions
        self.sup_bits = []   # per system: per cell, per factor, atom bitset
        self.full = []       # per system: all-ones cell bitset
        self.even = []       # per system: bitset of even-dimensional cells
        self.odd = []
        self.dim_masks = []  # per system: {dim: cell bitset}
        self.inc = []        # per system: per factor {atom id: cell bitset}
        for sys, cells in zip(self.systems, self.cell_lists):
            dims = []
            sups = []
            even = odd = 0
            dmask: dict = {}
            incs = [dict() for _ in range(nf)]
            for ci, cell in enumerate(cells):
                bit = 1 << ci
                sup = []
                for f, s in enumerate(sys.cell_support(cell)):
                    mask = 0
                    inc_f = incs[f]
                    for a in s:
                        aid = atom_ids[f][a]
                        mask |= 1 << aid
                        inc_f[aid] = inc_f.get(aid, 0) | bit
                    sup.append(mask)
                sups.append(tuple(sup))
                d = sys.cell_dim(cell)
                dims.append(d)
                if d % 2 == 0:
                    even |= bit
                else:
                    odd |= bit
                dmask[d] = dmask.get(d, 0) | bit
            self.dims.append(dims)
            self.sup_bits.append(sups)
            self.full.append((1 << len(cells)) - 1)
            self.even.append(even)
            self.odd.append(odd)
            self.dim_masks.append(dmask)
            self.inc.append(incs)
        self._ocache: dict = {}

    def meeters(self, t, f, atom_mask):
        """Bitset of cells of system t whose support at factor position f
        contains one of the atoms in atom_mask."""
        key = (self.syskey[t], f, atom_mask)
        hit = self._ocache.get(key)
        if hit is not None:
            return hit
        u = 0
        inc_f = self.inc[t][f]
        m = atom_mask
        while m:
            lsb = m & -m
            u |= inc_f.get(lsb.bit_length() - 1, 0)
            m ^= lsb
        self._ocache[key] = u
        return u

    def candidates(self, t, running):
        """Bitset of cells of system t meeting the running intersection at
        every factor position."""
        acc = self.full[t]
        for f, mask in enumerate(running):
            acc &= self.meeters(t, f, mask)
            if not acc:
                break
        return acc

    def signed_count(self, t, bitset):
        """Sum of (-1)^dim over the cells of system t selected by bitset."""
        return (bitset & self.even[t]).bit_count() - (bitset & self.odd[t]).bit_count()


class InteractionBasis:
    """Commonly intersecting k-tuples of cells, graded by total dimension."""

    def __init__(self, systems, grades, index):
        self.systems = systems
        self.k = len(systems)
        self.grades = grades          # grades[p] = ordered list of tuples
        self.index = index            # tuple -> (grade, position)

    @property
    def n_grades(self):
        return len(self.grades)

    def grade_sizes(self):
        return [len(g) for g in self.grades]

    def total(self):
        return sum(len(g) for g in self.grades)

    def sort_key(self, t):
        flat = tuple(x for sys, part in zip(self.systems, t)
                     for x in sys.flat_key(part))
        return (flat, tuple(sys.flat_key(part)
                            for sys, part in zip(self.systems, t)))

    def __repr__(self):
        return f"InteractionBasis(k={self.k}, grade_sizes={self.grade_sizes()})"


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
            nxt = tuple(r & s for r, s in zip(running, sup)) if running else sup
            yield from rec(j + 1, parts + (cell_lists[j][idx],), nxt,
                           dsum + dims[j][idx])

    return rec(0, (), (), 0)


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
    b = InteractionBasis(systems, grades, {})
    for p, tuples in enumerate(grades):
        tuples.sort(key=b.sort_key)
        for pos, t in enumerate(tuples):
            b.index[t] = (p, pos)
    return b


def wu_characteristic(complexes) -> int:
    """Signed count of ordered k-tuples with non-empty common intersection.

    Sum over tuples of the product of the parts' weights (-1)^dim; k=1 is
    the Euler characteristic. Tuples are never materialized: the last
    factor is summed by parity popcounts on the candidate bitset.
    """
    ctx = _IntersectionContext(list(complexes))
    t = len(ctx.systems) - 1
    total = 0
    for _, dsum, last in _walk(ctx):
        w = ctx.signed_count(t, last)
        total += -w if dsum % 2 else w
    return total


def _profile_counts(c, k) -> dict:
    """Counts of commonly intersecting k-tuples keyed by dimension profile."""
    ctx = _IntersectionContext([c] * k)
    dmasks = ctx.dim_masks[0]
    counts: dict = {}
    for parts, _, last in _walk(ctx):
        profile = tuple(c.cell_dim(x) for x in parts)
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
    if k == 1:
        return list(f_vector(c))
    counts = _profile_counts(c, k)
    if not counts:
        return []
    top = max(max(p) for p in counts)

    def build(prefix):
        if len(prefix) == k:
            return counts.get(prefix, 0)
        return [build(prefix + (d,)) for d in range(top + 1)]

    return build(())


def euler_polynomial(c: Complex):
    """Coefficient list of sum_p v_p t^p; evaluates to chi at t = -1."""
    fv = f_vector(c)
    return list(fv) if fv else [0]


def multivariate_euler_polynomial(c: Complex, k: int) -> dict:
    """Generating function of the f-tensor as {exponent tuple: coefficient}.

    Evaluating at t_1 = ... = t_k = -1 gives the Wu characteristic omega_k.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    return _profile_counts(c, k)


def eval_multivariate(poly: dict, values) -> int:
    total = 0
    for expo, coeff in poly.items():
        term = coeff
        for e, v in zip(expo, values):
            term *= v ** e
        total += term
    return total


def polynomial_string(poly: dict, varnames=None) -> str:
    """Human-readable form of a multivariate polynomial dictionary."""
    if not poly:
        return "0"
    k = len(next(iter(poly)))
    if varnames is None:
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
