"""Connection graph and Fredholm determinant of a complex.

The connection matrix L has a row and column per simplex, with L[x][y] = 1
exactly when x and y intersect (so the diagonal is 1). Its determinant, the
Fredholm characteristic, is always +1 or -1 and equals the product of the
weights w(x) = (-1)^dim(x). The quadratic form of L against the weight
vector recovers the order-2 Wu characteristic.
"""

from __future__ import annotations

from .basis import _counted_terms, _tables, _walk
from .exact import det_bareiss
from .simplicial import (MAX_SIMPLICES, OVER_BUDGET, Complex, Graph,
                         simplex_weight, whitney_complex)

# det_bareiss on the n x n connection matrix takes up to n^3 big-integer
# steps and 2 n^2 list slots: the 10-vertex facet (n = 1,023) takes 1.3 s
# and 42 MB on a 2-vCPU VM, the next facet up (n = 2,047) 6.7 s and 128 MB
MAX_FREDHOLM_SIMPLICES = 2 ** 10


def connection_matrix(c: Complex):
    """L[i][j] = 1 when simplices i and j of the global cell order meet.
    Raises ValueError, before any row is built, on a complex of more than
    MAX_FREDHOLM_SIMPLICES simplices."""
    if len(c) > MAX_FREDHOLM_SIMPLICES:
        raise ValueError(f"the connection matrix takes at most "
                         f"{MAX_FREDHOLM_SIMPLICES} simplices, "
                         f"the complex has {len(c)}")
    sets = [frozenset(s) for s in c.cells]
    return [[1 if si & sj else 0 for sj in sets] for si in sets]


def connection_graph(c: Complex) -> Graph:
    """Vertices are simplex indices in the global cell order; two indices
    are adjacent when the simplices intersect: the upper triangle of the
    connection matrix, read from one order-2 tuple walk, whose prefix (i,)
    comes with the ascending ids of the cells that meet cell i. Raises
    ValueError as soon as the n vertices and the edges listed so far would
    pass MAX_SIMPLICES simplices of the connection complex, so no more than
    that many edges are ever held."""
    n, edges = len(c), []
    for (i,), _, meets in _walk(_tables([c, c])):
        later = [j for j in meets if j > i]
        if n + len(edges) + len(later) > MAX_SIMPLICES:
            raise ValueError(OVER_BUDGET)
        edges.extend((i, j) for j in later)
    return Graph(range(n), edges)


def connection_complex(c: Complex) -> Complex:
    """Whitney complex of the connection graph."""
    return whitney_complex(connection_graph(c))


def fermi_characteristic(c: Complex) -> int:
    """Product of the simplex weights: -1 to the number of odd simplices."""
    odd = sum(1 for s in c.cells if len(s) % 2 == 0)
    return -1 if odd % 2 else 1


def fredholm_characteristic(c: Complex) -> int:
    """Determinant of the connection matrix, exact."""
    det = det_bareiss(connection_matrix(c))
    if det not in (1, -1):
        raise ArithmeticError(f"connection determinant {det} is not a unit")
    return det


def wu_via_connection_trace(c: Complex) -> int:
    """The quadratic form w^T L w of the connection matrix against the
    simplex weights: the sum of w(x) w(y) over all intersecting simplex
    pairs, which equals the order-2 Wu characteristic, read from the
    order-2 tuple walk as connection_graph is, under the tuple budget."""
    _counted_terms([c, c])
    w = [simplex_weight(s) for s in c.cells]
    return sum(w[i] * sum(w[j] for j in meets)
               for (i,), _, meets in _walk(_tables([c, c])))
