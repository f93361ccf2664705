"""Connection graph and Fredholm determinant of a complex.

The connection matrix L has a row and column per simplex, with L[x][y] = 1
exactly when x and y intersect (so the diagonal is 1). Its determinant, the
Fredholm characteristic, is always +1 or -1 and equals the product of the
weights w(x) = (-1)^dim(x). The quadratic form of L against the weight
vector recovers the order-2 Wu characteristic.
"""

from __future__ import annotations

from .exact import det_bareiss
from .simplicial import Complex, Graph, simplex_weight, whitney_complex


def connection_graph(c: Complex) -> Graph:
    """Vertices are simplex indices in the global cell order; two indices
    are adjacent when the simplices intersect."""
    cells = c.cells
    sets = [frozenset(s) for s in cells]
    n = len(cells)
    edges = []
    for i in range(n):
        si = sets[i]
        for j in range(i + 1, n):
            if si & sets[j]:
                edges.append((i, j))
    return Graph(range(n), edges)


def connection_matrix(c: Complex):
    cells = c.cells
    sets = [frozenset(s) for s in cells]
    n = len(cells)
    rows = []
    for i in range(n):
        si = sets[i]
        rows.append([1 if si & sets[j] else 0 for j in range(n)])
    return rows


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
        raise ArithmeticError(
            f"connection determinant {det} is not a unit")
    return det


def wu_via_connection_trace(c: Complex) -> int:
    """Sum of L(x,y) w(x) w(y) over all simplex pairs; equals the order-2
    Wu characteristic."""
    cells = c.cells
    sets = [frozenset(s) for s in cells]
    weights = [simplex_weight(s) for s in cells]
    n = len(cells)
    total = 0
    for i in range(n):
        si = sets[i]
        wi = weights[i]
        for j in range(n):
            if si & sets[j]:
                total += wi * weights[j]
    return total
