"""Finite abstract simplicial complexes and the graphs carrying them.

A simplex is a strictly increasing tuple of non-negative integer vertex ids;
its dimension is one less than its length and its weight is (-1)^dim. A
Complex is a finite set of simplices closed under taking non-empty subsets.
All values are immutable; every function here is pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# generate_complex and whitney_complex refuse complexes with more simplices
# than this, before enumerating them: a facet of 28 vertices alone has 2**28
# faces, and the clique complex of a dense graph grows as fast. Enumerating
# 2**18 cliques takes about 0.4 s on a 2-vCPU host.
MAX_SIMPLICES = 2 ** 18
OVER_BUDGET = f"the complex has more than {MAX_SIMPLICES} simplices"


def make_simplex(vertices) -> tuple:
    s = tuple(sorted(set(int(v) for v in vertices)))
    if not s:
        raise ValueError("a simplex needs at least one vertex")
    if any(v < 0 for v in s):
        raise ValueError("vertex ids must be non-negative integers")
    return s


def simplex_weight(s) -> int:
    """(-1)^dim: +1 for even-dimensional simplices, -1 for odd."""
    return 1 if len(s) % 2 == 1 else -1


class Complex:
    """A downward-closed set of simplices in one global cell order.

    The constructor validates closure; use generate_complex to build a
    complex from an arbitrary facet list.
    """

    def __init__(self, simplices):
        simp = frozenset(make_simplex(s) for s in simplices)
        for s in simp:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if face not in simp:
                        raise ValueError(
                            f"not closed under subsets: {face} missing from {s}")
        self.simplices = simp
        self.vertex_set = frozenset(v for s in simp for v in s)
        # global deterministic cell order: by dimension, then lexicographic
        self.cells = sorted(simp, key=lambda t: (len(t), t))

    # the duck-typed cell interface shared with ring.ProductComplex
    @staticmethod
    def cell_dim(cell) -> int:
        return len(cell) - 1

    @staticmethod
    def cell_boundary(cell):
        """Signed codimension-1 faces, sign (-1)^m for the m-th vertex removed.

        This is the package's one simplex face-sign rule; product cells
        combine it by the Leibniz rule (ring.ProductComplex.cell_boundary),
        and the interaction derivative reads it through the face table of
        each complex."""
        if len(cell) == 1:
            return []
        out = []
        for m in range(len(cell)):
            face = cell[:m] + cell[m + 1:]
            out.append((face, 1 if m % 2 == 0 else -1))
        return out

    @staticmethod
    def cell_support(cell):
        """The atoms two cells must share to meet: here the vertices."""
        return cell

    @staticmethod
    def flat_key(cell):
        return cell

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s):
        return tuple(s) in self.simplices

    def __iter__(self):
        return iter(self.cells)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"Complex(f_vector={f_vector(self)})"

    def facets(self):
        """Maximal simplices, in the global cell order: the cells that are
        no codimension-1 face of another simplex."""
        faces = {f for s in self.simplices for f in combinations(s, len(s) - 1)}
        return [s for s in self.cells if s not in faces]

    def skeleton_graph(self) -> "Graph":
        return Graph(self.vertex_set, [s for s in self.cells if len(s) == 2])


class Graph:
    """Finite simple graph: integer vertices, unordered edges."""

    def __init__(self, vertices, edges):
        self.vertices = frozenset(int(v) for v in vertices)
        es = set()
        adj = {v: set() for v in self.vertices}
        for e in edges:
            u, v = sorted(int(x) for x in e)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            es.add((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.edges = frozenset(es)
        self.adj = {v: frozenset(ns) for v, ns in adj.items()}

    def degree(self, v) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def generate_complex(facets) -> Complex:
    """Downward closure of a facet list: the smallest complex containing them.

    Raises ValueError when it would have more than MAX_SIMPLICES simplices."""
    simplices = set()
    for facet in facets:
        f = make_simplex(facet)
        if 2 ** len(f) - 1 > MAX_SIMPLICES:
            raise ValueError(OVER_BUDGET)
        for r in range(1, len(f) + 1):
            simplices.update(combinations(f, r))
        if len(simplices) > MAX_SIMPLICES:
            raise ValueError(OVER_BUDGET)
    return Complex(simplices)


def whitney_complex(g: Graph) -> Complex:
    """The complex of all complete subgraphs (cliques) of g.

    Raises ValueError once it finds more than MAX_SIMPLICES cliques, or a
    clique with more than MAX_SIMPLICES faces, which also bounds the depth
    of the search."""
    cliques = []

    def extend(clique, candidates):
        cliques.append(tuple(clique))
        if len(cliques) > MAX_SIMPLICES or 2 ** len(clique) - 1 > MAX_SIMPLICES:
            raise ValueError(OVER_BUDGET)
        for v in sorted(candidates):
            extend(clique + [v],
                   frozenset(w for w in candidates if w > v and w in g.adj[v]))

    for v in sorted(g.vertices):
        extend([v], frozenset(w for w in g.adj[v] if w > v))
    return Complex(cliques)


def f_vector(c):
    """Cell counts by dimension of a Complex or ring.ProductComplex; a
    complex with no cells gives the empty tuple."""
    counts = [0] * (max(map(c.cell_dim, c.cells), default=-1) + 1)
    for cell in c.cells:
        counts[c.cell_dim(cell)] += 1
    return tuple(counts)


def euler_characteristic(c: Complex) -> int:
    return sum(simplex_weight(s) for s in c.simplices)


def simplex_index_map(c: Complex) -> dict:
    """Simplex -> its position in the global (dimension, lex) cell order.

    This numbering is what barycentric_refinement uses for the new vertex
    ids, so refinements are reproducible bit for bit.
    """
    return {s: i for i, s in enumerate(c.cells)}


def inclusion_edges(c: Complex):
    """Pairs of cell indices (i, j), i < j, with simplex i a proper face of
    simplex j, sorted; these are the edges of the barycentric refinement,
    and they form a subgraph of the connection graph."""
    idx = simplex_index_map(c)
    return sorted((idx[face], idx[s]) for s in c.cells
                  for r in range(1, len(s)) for face in combinations(s, r))


def barycentric_refinement(c: Complex) -> Complex:
    """Complex on the simplices of c; faces are chains ordered by inclusion."""
    return whitney_complex(Graph(range(len(c.cells)), inclusion_edges(c)))


def _induced(g: Graph, vertices) -> Graph:
    """Subgraph of g induced by vertices, read from the adjacency sets."""
    return Graph(vertices, [(a, b) for a in vertices
                            for b in g.adj[a] & vertices if a < b])


def unit_sphere(g: Graph, v) -> Graph:
    """Subgraph induced by the neighbors of v."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} not in graph")
    return _induced(g, g.adj[v])


def inductive_dimension(g: Graph) -> Fraction:
    """dim(empty) = -1; otherwise 1 + average dimension of the unit spheres.

    Exact rational arithmetic, so e.g. 7/5 comes out as Fraction(7, 5).
    """
    memo: dict = {}

    def dim_of(vertex_subset) -> Fraction:
        if not vertex_subset:
            return Fraction(-1)
        key = vertex_subset
        if key in memo:
            return memo[key]
        total = Fraction(0)
        for v in vertex_subset:
            sphere = frozenset(g.adj[v] & vertex_subset)
            total += 1 + dim_of(sphere)
        result = total / len(vertex_subset)
        memo[key] = result
        return result

    return dim_of(frozenset(g.vertices))


def euler_curvature(g: Graph, v) -> Fraction:
    """Curvature 1 - v0/2 + v1/3 - v2/4 + ... of the unit sphere's f-vector."""
    sphere = unit_sphere(g, v)
    fv = f_vector(whitney_complex(sphere))
    kappa = Fraction(1)
    for k, count in enumerate(fv):
        kappa += Fraction((-1) ** (k + 1) * count, k + 2)
    return kappa


def poincare_hopf_index(g: Graph, f: dict, v) -> int:
    """1 - chi(S_f^-(v)) for an injective vertex valuation f."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} not in graph")
    values = [f[w] for w in g.vertices]
    if len(set(values)) != len(values):
        raise ValueError("valuation must be injective on the vertices")
    below = frozenset(w for w in g.adj[v] if f[w] < f[v])
    return 1 - euler_characteristic(whitney_complex(_induced(g, below)))


def zagreb_index(g: Graph) -> int:
    return sum(g.degree(v) ** 2 for v in g.vertices)
