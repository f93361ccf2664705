"""Finite abstract simplicial complexes and the graphs carrying them.

A simplex is a strictly increasing tuple of non-negative integer vertex ids;
its dimension is one less than its length and its weight is (-1)^dim. A
Complex is a finite set of simplices closed under taking non-empty subsets.
All values are immutable; every function here is pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


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
    """A downward-closed set of simplices with per-dimension indexing.

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
        self.by_dim: dict = {}
        for s in sorted(simp, key=lambda t: (len(t), t)):
            self.by_dim.setdefault(len(s) - 1, []).append(s)
        self.vertex_set = frozenset(v for s in simp for v in s)
        # global deterministic cell order: by dimension, then lexicographic
        self.cells = [s for p in sorted(self.by_dim) for s in self.by_dim[p]]
        self._hash = hash(simp)

    # the duck-typed cell interface shared with ring.ProductComplex
    @staticmethod
    def cell_dim(cell) -> int:
        return len(cell) - 1

    @staticmethod
    def cell_boundary(cell):
        """Signed codimension-1 faces, sign (-1)^m for the m-th vertex removed.

        This is the package's one simplex face-sign rule; product cells and
        interaction tuples combine it through leibniz_boundary."""
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

    @property
    def dim(self) -> int:
        return max(self.by_dim) if self.by_dim else -1

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s):
        return tuple(s) in self.simplices

    def __iter__(self):
        return iter(self.cells)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Complex(f_vector={f_vector(self)})"

    def facets(self):
        """Maximal simplices, in the global cell order: the cells that are
        no codimension-1 face of another simplex."""
        faces = {f for s in self.simplices for f in combinations(s, len(s) - 1)}
        return [s for s in self.cells if s not in faces]

    def skeleton_graph(self) -> "Graph":
        edges = [s for s in self.by_dim.get(1, [])]
        return Graph(self.vertex_set, edges)


def leibniz_boundary(systems, parts):
    """Signed codimension-1 faces of a tuple of cells, part j from systems[j].

    Leibniz rule: a face of part j carries its own face sign times
    (-1)^(dims of the parts before j). Returns (face tuple, sign) pairs with
    the faces of part 0 first, each part's faces in cell_boundary order."""
    out = []
    pre = 0
    for j, (sys, part) in enumerate(zip(systems, parts)):
        sign_j = -1 if pre % 2 else 1
        for face, fsign in sys.cell_boundary(part):
            out.append((parts[:j] + (face,) + parts[j + 1:], sign_j * fsign))
        pre += sys.cell_dim(part)
    return out


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

    @classmethod
    def from_edges(cls, edges):
        vs = {v for e in edges for v in e}
        return cls(vs, edges)

    def neighbors(self, v):
        return self.adj[v]

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
    """Downward closure of a facet list: the smallest complex containing them."""
    simplices = set()
    for facet in facets:
        f = make_simplex(facet)
        for r in range(1, len(f) + 1):
            simplices.update(combinations(f, r))
    return Complex(simplices)


def whitney_complex(g: Graph) -> Complex:
    """The complex of all complete subgraphs (cliques) of g."""
    cliques = []

    def extend(clique, candidates):
        cliques.append(tuple(clique))
        for v in sorted(candidates):
            extend(clique + [v],
                   frozenset(w for w in candidates if w > v and w in g.adj[v]))

    for v in sorted(g.vertices):
        extend([v], frozenset(w for w in g.adj[v] if w > v))
    return Complex(cliques)


def f_vector(c: Complex):
    """Simplex counts by dimension; empty complex gives the empty tuple."""
    if not c.by_dim:
        return ()
    top = max(c.by_dim)
    return tuple(len(c.by_dim.get(p, ())) for p in range(top + 1))


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


def unit_sphere(g: Graph, v) -> Graph:
    """Subgraph induced by the neighbors of v."""
    if v not in g.vertices:
        raise ValueError(f"vertex {v} not in graph")
    nbrs = g.adj[v]
    edges = [(a, b) for (a, b) in g.edges if a in nbrs and b in nbrs]
    return Graph(nbrs, edges)


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
    edges = [(a, b) for (a, b) in g.edges if a in below and b in below]
    return 1 - euler_characteristic(whitney_complex(Graph(below, edges)))


def zagreb_index(g: Graph) -> int:
    return sum(g.degree(v) ** 2 for v in g.vertices)
