"""Automorphisms and Lefschetz numbers for interaction cohomology.

An automorphism T of a complex permutes its cells, and with them the basis
tuples grade by grade, so it induces a map on each cohomology group; it
acts on the integer codes of the basis digit by digit. The Lefschetz number
is the alternating sum of traces on cohomology; it equals the sum of local
indices over the tuples T fixes setwise, which is the discrete fixed point
theorem the tests exercise."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod

from .basis import InteractionBasis
from .cohomology import cohomology_data
from .simplicial import Complex, Graph

# the automorphism search is exponential in the worst case, so it refuses
# graphs with more vertices, and stops at the first map past the second
# bound: n isolated vertices have n! maps, the catalog's largest group 3,840
MAX_AUTOMORPHISM_VERTICES = 12
MAX_AUTOMORPHISMS = 2 ** 16


def automorphism_group(g: Graph):
    """All graph automorphisms by backtracking, as vertex dicts.

    Raises ValueError on graphs with more than MAX_AUTOMORPHISM_VERTICES
    vertices or more than MAX_AUTOMORPHISMS automorphisms.
    """
    vs = sorted(g.vertices)
    if len(vs) > MAX_AUTOMORPHISM_VERTICES:
        raise ValueError(
            f"automorphism search on {len(vs)} vertices exceeds the limit of "
            f"{MAX_AUTOMORPHISM_VERTICES} vertices")
    fp = {v: (g.degree(v), tuple(sorted(g.degree(w) for w in g.adj[v])))
          for v in vs}
    counts = Counter(fp.values())
    order = sorted(vs, key=lambda v: (counts[fp[v]], v))
    autos = []
    mapping: dict = {}

    def extend(depth):
        if depth == len(vs):
            if len(autos) == MAX_AUTOMORPHISMS:
                raise ValueError(f"more than the limit of {MAX_AUTOMORPHISMS}"
                                 " automorphisms")
            autos.append(dict(mapping))
            return
        v = order[depth]
        used = set(mapping.values())
        for w in vs:
            if w not in used and fp[w] == fp[v] and all(
                    (u in g.adj[v]) == (tu in g.adj[w])
                    for u, tu in mapping.items()):
                mapping[v] = w
                extend(depth + 1)
                del mapping[v]

    extend(0)
    return autos


def complex_automorphisms(c: Complex):
    """Automorphisms of the vertex skeleton that map simplices to simplices."""
    return [t for t in automorphism_group(c.skeleton_graph())
            if all(tuple(sorted(t[v] for v in s)) in c for s in c.simplices)]


def permutation_sign(t: dict, s) -> int:
    """Parity of the permutation T induces on the simplex s it fixes setwise
    (more generally, of the map from s sorted to its image sorted): -1 to
    the number of inversions of the image sequence."""
    image = [t[v] for v in s]
    inversions = sum(a > b for i, a in enumerate(image) for b in image[i + 1:])
    return -1 if inversions % 2 else 1


def _cell_action(t: dict, basis: InteractionBasis):
    """Per slot, for each cell id, the pair (id of its image under T, sign
    of the permutation T induces on it); slots of one system share it."""
    tables = {}
    for s in basis.systems:
        if id(s) not in tables:
            pos = {cell: i for i, cell in enumerate(s.cells)}
            tables[id(s)] = [(pos[tuple(sorted(t[v] for v in cell))],
                              permutation_sign(t, cell)) for cell in s.cells]
    return [tables[id(s)] for s in basis.systems]


def _fixed_codes(basis: InteractionBasis, action):
    """(code, index) for the layout codes whose digits T all fixes, in
    layout order. A part x_j counts sign(T on x_j) if fixed and 0 if moved,
    so the index (-1)^p * prod_j sign(T on x_j) of a grade-p tuple (its
    weights w(x_j) multiply to (-1)^p) is 0 exactly when T moves a part."""
    fixed = [[sign if image == c else 0 for c, (image, sign)
              in enumerate(table)] for table in action]
    out = []
    for p, codes in enumerate(basis.layout):
        # the first digit alone rejects most codes
        for code in [x for x in codes if fixed[0][x // basis.radices[0]]]:
            index = (-1) ** p * prod(basis._parts(code, fixed))
            if index:
                out.append((code, index))
    return out


def _trace(data, action) -> int:
    """Alternating sum of the traces of T on the reduced-echelon harmonic
    forms (see lefschetz_number)."""
    basis, total = data.basis, Fraction(0)
    for p, (kernel, codes) in enumerate(zip(data.harmonic, basis.layout)):
        for vec in kernel:
            f = max(j for j, v in enumerate(vec) if v)
            parts = basis._parts(codes[f], action)
            image = sum(c * r for (c, _), r in zip(parts, basis.radices))
            tr = Fraction(prod(s for _, s in parts) * vec[codes.index(image)],
                          vec[f])
            total += tr if p % 2 == 0 else -tr
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer Lefschetz number {total}")
    return int(total)


def fixed_tuples(t: dict, basis: InteractionBasis):
    """Tuples fixed setwise in every slot, in layout order, with their local
    indices index(x) = prod_j w(x_j) * sign(T restricted to x_j)."""
    cells = [s.cells for s in basis.systems]
    return [(basis._parts(code, cells), index)
            for code, index in _fixed_codes(basis, _cell_action(t, basis))]


def lefschetz_number(t: dict, c: Complex, k: int) -> int:
    """Alternating sum of traces of the induced map on cohomology, exact.

    The harmonic forms h_i of a grade are its reduced-echelon kernel basis
    (exact.kernel_basis): the last non-zero entry of h_i sits at its own
    free column f_i, where every other h_j is 0. The induced map U sends
    the tuple x to sign(x) times T x; it is a chain map and orthogonal, so
    it and U^T = U^-1 keep the harmonic space, with the same trace there.
    U^T h_i = sum_j a_ji h_j has (U^T h_i)[f_i] = a_ii h_i[f_i], and
    (U^T h_i)[x] = sign(x) h_i[T x], so the trace on cohomology maps one
    code per form: sum_i sign(x_i) h_i[T x_i] / h_i[f_i], x_i at f_i.
    """
    data = cohomology_data(tuple([c] * k))
    return _trace(data, _cell_action(t, data.basis))


def lefschetz_fixed_point_check(t: dict, c: Complex, k: int) -> dict:
    data = cohomology_data(tuple([c] * k))
    action = _cell_action(t, data.basis)
    cohom = _trace(data, action)
    local = [index for _, index in _fixed_codes(data.basis, action)]
    return {"k": k, "lefschetz": cohom, "fixed_tuples": len(local),
            "index_sum": sum(local), "fixed_point_ok": cohom == sum(local)}
