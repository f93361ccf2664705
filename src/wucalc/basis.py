"""Graded bases of simultaneously intersecting simplex tuples.

The interaction basis of complexes (G_1, ..., G_k) consists of all ordered
k-tuples (x_1, ..., x_k), x_j a cell of G_j, whose members share a common
point: x_1 cap ... cap x_k is non-empty, which for k >= 3 is stronger than
pairwise intersection. Tuples are graded by total dimension.

The tuples are counted, not walked. A tuple with common intersection T is
counted once by sum over the non-empty faces S of T of (-1)^dim S = 1, and
those S are the faces common to all k cells, so exchanging the sums
(Moebius inversion on the face poset, Rota 1964) gives

    count[d_1, ..., d_k] = sum over common faces S of (-1)^dim S
                           * prod_j #{x in G_j : x >= S, dim x = d_j}.

One star table per distinct complex, over the common faces only, gives the
dimension profile, the tuples per grade, the Wu characteristic and the
exact count that build_basis checks against MAX_TUPLES. Product cells meet
when every factor meets, so their common faces are the tuples of the
factors' common faces. build_basis walks the tuples on star lists (_walk):
per distinct complex, each cell's support, its atoms (the vertices of a
simplex or the vertex tuples of a product cell), and each atom's star, the
ascending ids of the cells that contain it. It stores each tuple as one
integer code (InteractionBasis).

Everything accepts the small cell interface of simplicial.Complex (cells,
cell_dim, cell_boundary, cell_support, flat_key), which is how
ring.ProductComplex reuses this machinery; the counts also read the
simplices of a Complex and the factors of a product. The complexes of one
call are all of one kind.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, groupby, repeat
from itertools import product as iter_product
from math import prod
from operator import mul

from .simplicial import Complex, f_vector

# A basis stores every intersecting k-tuple, so an input with more of them
# than this is refused: on a 2-vCPU host build_basis lists the 3,482,721
# 8-tuples of two triangles sharing an edge in 3.7 s and about 140 MB, so a
# basis at the budget would take about 18 s and 700 MB before any rank. The
# count compared is exact (_face_terms), and every command compares it
# before it builds a walk table or stores a code.
MAX_TUPLES = 2 ** 24


def _check_budget(count, k):
    if count > MAX_TUPLES:
        raise ValueError(f"at least {count} intersecting {k}-tuples, more "
                         f"than the tuple budget of {MAX_TUPLES}")


class InteractionBasis:
    """Commonly intersecting k-tuples of cells, graded by total dimension.

    A tuple (x_1, ..., x_k) is stored as one mixed-radix integer code, the
    sum of c_j * radices[j] where c_j is the position of x_j in
    systems[j].cells. codes[p] holds the codes of grade p in walk order,
    ascending, which the Betti route ranks: an array("Q"), 8 bytes a code,
    when every code fits in 64 bits, else (0-dimensional complexes at high
    k) a list of ints. layout[p] lists them in the pinned order of every
    matrix shown, derived on first read. No tuple of cells is stored:
    _parts decodes a code for the few readers of one."""

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


def _table(system):
    """The walk's table of one complex: per cell its dimension and its
    support as a frozenset of atoms, and per atom the ascending ids of the
    cells that contain it, its star."""
    dims, sups, stars = [], [], {}
    for ci, cell in enumerate(system.cells):
        sup = frozenset(system.cell_support(cell))
        for a in sup:
            stars.setdefault(a, []).append(ci)
        dims.append(system.cell_dim(cell))
        sups.append(sup)
    return dims, sups, stars


def _tables(systems):
    """One _table per distinct complex, listed slot by slot."""
    made = {s: _table(s) for s in dict.fromkeys(systems)}
    return [made[s] for s in systems]


def _walk(tables, j=0, ids=(), running=None, dsum=0):
    """Yield (ids, dsum, last) for every tuple ids of cell ids for the first
    k-1 slots whose cells have a non-empty common intersection: dsum is
    their total dimension and last the ascending ids of the cells of the
    final slot that meet it. Slot j takes every cell when j = 0, else the
    union of the stars of the atoms in running, the common intersection so
    far, sorted (a lone atom's star is already ascending). Prefixes come in
    depth-first order over ascending cell ids."""
    dims, sups, stars = tables[j]
    cand = (range(len(dims)) if running is None
            else stars.get(next(iter(running)), ()) if len(running) == 1
            else sorted({c for a in running for c in stars.get(a, ())}))
    if j == len(tables) - 1:
        yield ids, dsum, cand
        return
    for idx in cand:
        sup = sups[idx] if running is None else running & sups[idx]
        yield from _walk(tables, j + 1, ids + (idx,), sup, dsum + dims[idx])


def build_basis(complexes) -> InteractionBasis:
    """Enumerate all ordered k-tuples with common intersection, graded,
    once their exact count is within MAX_TUPLES. k=1 gives all cells graded
    by dimension. Each grade lists its codes in walk order, ascending."""
    systems = list(complexes)
    _counted_terms(systems)
    tables = _tables(systems)
    radices = [prod(len(s.cells) for s in systems[j + 1:])
               for j in range(len(systems))]
    last_dims = tables[-1][0]
    fits = radices[0] * len(systems[0].cells) <= 2 ** 64
    by_grade = defaultdict(partial(array, "Q") if fits else list)
    for ids, dsum, last in _walk(tables):
        base = sum(map(mul, ids, radices))
        for idx in last:
            by_grade[dsum + last_dims[idx]].append(base + idx)
    codes = [by_grade[p] for p in range(max(by_grade, default=-1) + 1)]
    return InteractionBasis(systems, radices, codes)


def _faces(x, common):
    """The non-empty faces of the simplex x in common, a downward-closed set
    of simplices (all of them when common is None), grown one vertex at a
    time so that no face outside common is extended."""
    if common is None:
        return [f for r in range(1, len(x) + 1) for f in combinations(x, r)]
    faces, level = [], [((v,), i) for i, v in enumerate(x) if (v,) in common]
    while level:
        faces += [f for f, _ in level]
        level = [(g, j) for f, i in level for j in range(i + 1, len(x))
                 if (g := f + (x[j],)) in common]
    return faces


@lru_cache(maxsize=1)  # CohomologyData counts, then build_basis checks
def _face_terms(systems: tuple) -> tuple:
    """The profile counts of systems as terms (c, vecs), one vector of
    counts by dimension per slot: count[d_1, ..., d_k] sums
    c * prod_j vecs[j][d_j] over the terms; common faces with the same stars
    share a term. A cell x and a common face S < x make the distinct tuple
    with x in one slot and S in the others, as does (S, ..., S), so
    ValueError is raised once these pairs pass MAX_TUPLES; for one complex
    also once the k-tuples of faces of its last cell that meet do: m^n -
    (m-1)^n for n vertices and m = 2^k, multiplied over a product's parts."""
    if not systems:
        raise ValueError("need at least one complex")
    if len({type(s) for s in systems}) > 1:
        raise ValueError("cannot mix simplicial complexes and cell products")
    k, distinct = len(systems), list(dict.fromkeys(systems))
    if k == 1:
        return ((1, (f_vector(systems[0]),)),)
    is_product = hasattr(systems[0], "factors")
    factors = [s.factors if is_product else (s,) for s in distinct]
    if len(set(map(len, factors))) > 1:
        return ()  # product cells of different arity never meet
    if len(distinct) == 1:  # every face is common: count the pairs first
        commons, order = [None] * len(factors[0]), systems[0].cells
        pairs = (sum(prod(2 ** len(p) - 1 for p in x) for x in order)
                 if is_product else sum(2 ** len(x) - 1 for x in order))
        top = prod((2 ** k) ** len(p) - (2 ** k - 1) ** len(p) for p in (
            order[-1] if is_product else order[-1:])) if order else 0
        _check_budget(max(top, pairs), k)
    else:
        commons = [frozenset.intersection(*(f[i].simplices for f in factors))
                   for i in range(len(factors[0]))]
        order = list(iter_product(*commons) if is_product else commons[0])
    pairs, stars = len(order), []
    for s in distinct:
        pairs -= len(order)
        stars.append([])  # [d][S]: the d-cells of s that contain S
        for _, cells in groupby(s.cells, s.cell_dim):  # d = 0, 1, 2, ...
            star = Counter()
            for x in cells:
                faces = (list(iter_product(*map(_faces, x, commons)))
                         if is_product else _faces(x, commons[0]))
                pairs += len(faces)
                if pairs > MAX_TUPLES:
                    _check_budget(pairs, k)
                star.update(faces)
            stars[-1].append(star)
    sigs = zip(*(zip(*(map(n.get, order, repeat(0)) for n in star))
                 for star in stars))
    terms: Counter = Counter()
    for (dim, sig), n in Counter(zip(map(systems[0].cell_dim, order),
                                     sigs)).items():
        terms[sig] += -n if dim % 2 else n
    slot = [distinct.index(s) for s in systems]
    return tuple((c, tuple(sig[i] for i in slot))
                 for sig, c in terms.items() if c)


def _counted_terms(complexes):
    """_face_terms of the complexes once their tuple count, the terms at
    t = 1, is within MAX_TUPLES."""
    systems = tuple(complexes)
    terms = _face_terms(systems)
    _check_budget(sum(c * prod(map(sum, v)) for c, v in terms), len(systems))
    return terms


def profile_counts(complexes) -> dict:
    """Counts of commonly intersecting tuples keyed by dimension profile,
    expanded from the face terms once their total is within the budget and
    so are the k entries of each profile the expansion can hold."""
    systems = tuple(complexes)
    terms = _counted_terms(systems)
    size = len(systems) * sum(prod(sum(map(bool, v)) for v in vecs)
                              for _, vecs in terms)
    if size > MAX_TUPLES:
        raise ValueError(f"the {len(systems)}-tuple dimension profile may "
                         f"hold {size} entries, more than the tuple budget "
                         f"of {MAX_TUPLES}")
    counts: Counter = Counter()
    for c, vecs in terms:
        part = {(): c}
        for v in vecs:
            part = {key + (d,): m * n for key, m in part.items()
                    for d, n in enumerate(v) if n}
        counts.update(part)
    return dict(+counts)


def grade_counts(complexes) -> list:
    """Counts of commonly intersecting tuples by total dimension, the grade
    sizes of build_basis: a term's vectors multiply as polynomials in one
    variable, so the (d+1)^k profile is never expanded."""
    sizes: Counter = Counter()
    for c, vecs in _counted_terms(complexes):
        sizes.update(dict(enumerate(reduce(poly_mul, vecs, [c]))))
    return [sizes[p] for p in range(max(+sizes, default=-1) + 1)]


def poly_mul(a, b):
    """The coefficient list of the product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def wu_characteristic(complexes) -> int:
    """Signed count of ordered k-tuples with non-empty common intersection.

    Sum over tuples of the product of the parts' weights (-1)^dim, that is
    the multivariate Euler polynomial at t_1 = ... = t_k = -1; k=1 is the
    Euler characteristic.
    """
    return sum(-n if p % 2 else n
               for p, n in enumerate(grade_counts(complexes)))


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
    counts = profile_counts([c] * k)
    if not counts:
        return []
    side = max(map(max, counts)) + 1
    cube = [counts.get(p, 0) for p in iter_product(range(side), repeat=k)]
    for _ in range(k - 1):  # nest the flat cube one axis at a time
        cube = [cube[i:i + side] for i in range(0, len(cube), side)]
    return cube


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
    return profile_counts([c] * k)


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
        body = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(varnames, expo) if e > 0)
        terms.append(str(coeff) if not body else body if coeff == 1
                     else f"-{body}" if coeff == -1 else f"{coeff}*{body}")
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
