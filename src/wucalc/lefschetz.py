"""Automorphisms and Lefschetz numbers for interaction cohomology.

An automorphism T of a complex permutes the basis tuples grade by grade, so
it induces a map on each cohomology group. The Lefschetz number is the
alternating sum of traces on cohomology; it equals the sum of local indices
over the tuples T fixes setwise, which is the discrete fixed point theorem
the tests exercise.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod

from .basis import InteractionBasis
from .cohomology import cohomology_data
from .simplicial import Complex, Graph

# the automorphism search is exponential in the worst case, so it refuses
# graphs with more vertices than this
MAX_AUTOMORPHISM_VERTICES = 12


def automorphism_group(g: Graph):
    """All graph automorphisms by backtracking, as vertex dicts.

    Raises ValueError on graphs with more than MAX_AUTOMORPHISM_VERTICES
    vertices.
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


def _signed_permutation(t: dict, basis: InteractionBasis):
    """The map T induces on basis tuples, grade by grade, as a pair of lists
    (image, signs): T sends the tuple x at position i to signs[i] times the
    tuple at position image[i] of the same grade, where signs[i] is the
    product of the permutation signs of T on the parts of x."""
    moved, sign = {}, {}
    for c in basis.systems:
        for s in c.cells:
            moved[s] = tuple(sorted(t[v] for v in s))
            sign[s] = permutation_sign(t, s)
    return [([basis.index[tuple(moved[part] for part in x)] for x in grade],
             [prod(sign[part] for part in x) for x in grade])
            for grade in basis.grades]


def _fixed(basis: InteractionBasis, maps):
    """The diagonal of the signed permutation: the tuples T fixes setwise in
    every slot, with index (-1)^p * sign, since the weights w(x_j) of a
    grade-p tuple multiply to (-1)^p."""
    out = []
    for p, (grade, (image, signs)) in enumerate(zip(basis.grades, maps)):
        w = 1 if p % 2 == 0 else -1
        out.extend((grade[i], w * signs[i])
                   for i, j in enumerate(image) if i == j)
    return out


def _trace(harmonic, maps) -> int:
    """Alternating sum of the traces of the signed permutation on the
    reduced-echelon harmonic forms (see lefschetz_number)."""
    total = Fraction(0)
    for p, (kernel, (image, signs)) in enumerate(zip(harmonic, maps)):
        tr = Fraction(0)
        for vec in kernel:
            f = max(j for j, v in enumerate(vec) if v)
            i = image.index(f)
            tr += Fraction(signs[i] * vec[i], vec[f])
        total += tr if p % 2 == 0 else -tr
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer Lefschetz number {total}")
    return int(total)


def fixed_tuples(t: dict, basis: InteractionBasis):
    """Tuples fixed setwise in every slot, with their local indices
    index(x) = prod_j w(x_j) * sign(T restricted to x_j)."""
    return _fixed(basis, _signed_permutation(t, basis))


def lefschetz_number(t: dict, c: Complex, k: int) -> int:
    """Alternating sum of traces of the induced map on cohomology, exact.

    The harmonic forms h_i of a grade are its reduced-echelon kernel basis
    (exact.kernel_basis): the last non-zero entry of h_i sits at its own
    free column f_i, where every other h_j is 0. The induced map U is a
    chain map and orthogonal, so it keeps the harmonic space, and
    U h_i = sum_j a_ji h_j has (U h_i)[f_i] = a_ii h_i[f_i]. U is a signed
    permutation, so (U h_i)[f_i] is sign * h_i at the tuple T sends to f_i,
    and the trace on cohomology is sum_i (U h_i)[f_i] / h_i[f_i].
    """
    data = cohomology_data(tuple([c] * k))
    return _trace(data.harmonic, _signed_permutation(t, data.basis))


def lefschetz_fixed_point_check(t: dict, c: Complex, k: int) -> dict:
    data = cohomology_data(tuple([c] * k))
    maps = _signed_permutation(t, data.basis)
    cohom = _trace(data.harmonic, maps)
    fixed = _fixed(data.basis, maps)
    local = sum(index for _, index in fixed)
    return {"k": k, "lefschetz": cohom, "fixed_tuples": len(fixed),
            "index_sum": local, "fixed_point_ok": cohom == local}

