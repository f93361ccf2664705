"""Automorphisms and Lefschetz numbers for interaction cohomology.

An automorphism T of a complex permutes the basis tuples grade by grade, so
it induces a map on each cohomology group. The Lefschetz number is the
alternating sum of traces on cohomology; it equals the sum of local indices
over the tuples T fixes setwise, which is the discrete fixed point theorem
the tests exercise.
"""

from __future__ import annotations

from fractions import Fraction

from .basis import InteractionBasis
from .cohomology import cohomology_data
from .differential import DiracLaplacian
from .simplicial import Complex, Graph, simplex_weight


def automorphism_group(g: Graph, limit: int = 12):
    """All graph automorphisms by backtracking, as vertex dicts.

    The search is exponential in the worst case, so it refuses graphs with
    more than `limit` vertices; raise the limit explicitly if you mean it.
    """
    vs = sorted(g.vertices)
    if len(vs) > limit:
        raise ValueError(
            f"automorphism search on {len(vs)} vertices exceeds limit={limit}")
    fp = {}
    for v in vs:
        nbr = tuple(sorted(g.degree(w) for w in g.adj[v]))
        fp[v] = (g.degree(v), nbr)
    counts: dict = {}
    for v in vs:
        counts[fp[v]] = counts.get(fp[v], 0) + 1
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
            if w in used or fp[w] != fp[v]:
                continue
            ok = True
            for u, tu in mapping.items():
                if (u in g.adj[v]) != (tu in g.adj[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                extend(depth + 1)
                del mapping[v]

    extend(0)
    return autos


def complex_automorphisms(c: Complex, limit: int = 12):
    """Automorphisms of the vertex skeleton that map simplices to simplices."""
    autos = automorphism_group(c.skeleton_graph(), limit=limit)
    out = []
    for t in autos:
        if all(tuple(sorted(t[v] for v in s)) in c for s in c.simplices):
            out.append(t)
    return out


def permutation_sign(t: dict, s) -> int:
    """Parity of the permutation T induces on the simplex s it fixes setwise
    (more generally, of the map from s sorted to its image sorted)."""
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


def apply_to_tuple(t: dict, x):
    return tuple(tuple(sorted(t[v] for v in part)) for part in x)


def tuple_sign(t: dict, x) -> int:
    sign = 1
    for part in x:
        sign *= permutation_sign(t, part)
    return sign


def fixed_tuples(t: dict, basis: InteractionBasis):
    """Tuples fixed setwise in every slot, with their local indices
    index(x) = prod_j w(x_j) * sign(T restricted to x_j)."""
    out = []
    for grade in basis.grades:
        for x in grade:
            if all(frozenset(t[v] for v in part) == frozenset(part)
                   for part in x):
                weight = 1
                for part in x:
                    weight *= simplex_weight(part)
                out.append((x, weight * tuple_sign(t, x)))
    return out


def induced_block_maps(t: dict, basis: InteractionBasis):
    """Per grade, the signed permutation matrix of T on basis tuples,
    as a dict (row, col) -> sign."""
    blocks = []
    for p, grade in enumerate(basis.grades):
        entries = {}
        for col, x in enumerate(grade):
            tx = apply_to_tuple(t, x)
            gp, row = basis.index[tx]
            if gp != p:
                raise ValueError("automorphism does not preserve grading")
            entries[(row, col)] = tuple_sign(t, x)
        blocks.append(entries)
    return blocks


def lefschetz_number(t: dict, c: Complex, k: int) -> int:
    """Alternating sum of traces of the induced map on cohomology, exact.

    The harmonic forms h_i of a grade are its reduced-echelon kernel basis
    (exact.kernel_basis): the last non-zero entry of h_i sits at its own
    free column f_i, where every other h_j is 0. The induced map U is a
    chain map and orthogonal, so it keeps the harmonic space, and
    U h_i = sum_j a_ji h_j has (U h_i)[f_i] = a_ii h_i[f_i]. Its trace on
    cohomology is therefore sum_i (U h_i)[f_i] / h_i[f_i].
    """
    data = cohomology_data(tuple([c] * k))
    blocks = induced_block_maps(t, data.basis)
    total = Fraction(0)
    for p, kernel in enumerate(data.harmonic):
        if not kernel:
            continue
        free = {}
        for vec in kernel:
            f = max(j for j, v in enumerate(vec) if v)
            free[f] = vec
        tr = Fraction(0)
        for (row, col), sign in blocks[p].items():
            vec = free.get(row)
            if vec is not None:
                tr += Fraction(sign * vec[col], vec[row])
        total += tr if p % 2 == 0 else -tr
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer Lefschetz number {total}")
    return int(total)


def lefschetz_via_fixed_points(t: dict, c: Complex, k: int) -> int:
    basis = cohomology_data(tuple([c] * k)).basis
    return sum(index for _, index in fixed_tuples(t, basis))


def lefschetz_fixed_point_check(t: dict, c: Complex, k: int) -> dict:
    cohom = lefschetz_number(t, c, k)
    fixed = fixed_tuples(t, cohomology_data(tuple([c] * k)).basis)
    local = sum(index for _, index in fixed)
    return {
        "k": k,
        "lefschetz": cohom,
        "fixed_tuples": len(fixed),
        "index_sum": local,
        "fixed_point_ok": cohom == local,
    }


def heat_trace(t: dict, c: Complex, k: int, time: float) -> float:
    """Supertrace of exp(-time * L) composed with the induced map; it
    interpolates between the index sum (time 0) and the Lefschetz number."""
    import numpy

    data = cohomology_data(tuple([c] * k))
    dl: DiracLaplacian = data.dirac
    blocks = induced_block_maps(t, data.basis)
    total = 0.0
    for p, lp in enumerate(dl.laplacian_blocks):
        n = lp.nrows
        if n == 0:
            continue
        dense = numpy.array(lp.to_dense(), dtype=float)
        u = numpy.zeros((n, n))
        for (row, col), sign in blocks[p].items():
            u[row, col] = sign
        evals, q = numpy.linalg.eigh(dense)
        a = q.T @ u @ q
        term = float(numpy.sum(numpy.exp(-time * evals) * numpy.diag(a)))
        total += term if p % 2 == 0 else -term
    return total
