import random
from fractions import Fraction
from itertools import combinations

import pytest

from wucalc.simplicial import (
    MAX_SIMPLICES, Complex, Graph, barycentric_refinement, euler_characteristic,
    euler_curvature, f_vector, generate_complex, inductive_dimension,
    make_simplex, poincare_hopf_index, simplex_index_map, unit_sphere,
    whitney_complex, zagreb_index,
)
from wucalc.catalog import figure_eight, rabbit

from oracles import graph_from_edges, power_cells, random_facets


def test_generate_complex_is_closed_under_faces():
    c = generate_complex([(1, 2, 3), (3, 4)])
    cells = set(c.cells)
    for cell in c.cells:
        for m in range(len(cell)):
            face = cell[:m] + cell[m + 1:]
            if face:
                assert face in cells, f"missing face {face} of {cell}"


def test_generate_complex_matches_powerset_enumeration():
    rng = random.Random(101)
    for _ in range(30):
        facets = random_facets(rng)
        c = generate_complex(facets)
        assert list(c.cells) == power_cells(facets)


def test_facets_are_the_maximal_generating_sets():
    rng = random.Random(3113)
    for _ in range(40):
        sets = {frozenset(f)
                for f in random_facets(rng, max_vertices=7, max_facets=6,
                                       max_size=4)}
        maximal = sorted((tuple(sorted(f)) for f in sets
                          if not any(f < g for g in sets)),
                         key=lambda s: (len(s), s))
        assert generate_complex(sets).facets() == maximal
    assert Complex([]).facets() == []


def test_make_simplex_sorts_and_dedupes():
    assert make_simplex([3, 1, 2, 1]) == (1, 2, 3)


def test_f_vector_and_euler_characteristic_of_triangle():
    c = generate_complex([(1, 2, 3)])
    assert f_vector(c) == (3, 3, 1)
    assert euler_characteristic(c) == 1


def test_whitney_complex_fills_cliques():
    g = graph_from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
    c = whitney_complex(g)
    assert (1, 2, 3) in c
    assert (3, 4) in c
    assert (1, 2, 3, 4) not in c


def test_whitney_of_complete_graph_is_full_simplex():
    g = graph_from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    c = whitney_complex(g)
    assert f_vector(c) == (4, 6, 4, 1)


def test_complexes_over_the_simplex_budget_are_refused():
    # three disjoint 16-simplices: each fits, the third passes the budget
    facets = [range(17 * i, 17 * (i + 1)) for i in range(3)]
    assert 2 * (2 ** 17 - 1) <= MAX_SIMPLICES < 3 * (2 ** 17 - 1)
    with pytest.raises(ValueError, match="more than"):
        generate_complex(facets)
    # a 1000-clique has 2**1000 - 1 faces; the search stops at 19 vertices
    # instead of recursing 1000 deep
    with pytest.raises(ValueError, match="more than"):
        whitney_complex(Graph(range(1000), combinations(range(1000), 2)))


def test_barycentric_refinement_counts():
    # refining one triangle gives the cone over a hexagon: 7 vertices,
    # 12 edges, 6 triangles
    c = generate_complex([(1, 2, 3)])
    r = barycentric_refinement(c)
    assert f_vector(r) == (7, 12, 6)
    assert euler_characteristic(r) == euler_characteristic(c)


def test_barycentric_refinement_preserves_euler_characteristic():
    rng = random.Random(55)
    for _ in range(20):
        c = generate_complex(random_facets(rng))
        assert euler_characteristic(barycentric_refinement(c)) == \
            euler_characteristic(c)


def test_simplex_index_map_is_a_bijection_onto_range():
    c = generate_complex([(1, 2), (2, 3), (1, 3)])
    idx = simplex_index_map(c)
    assert sorted(idx.values()) == list(range(len(c)))
    assert idx[(1,)] == 0
    # positions follow the global cell order, vertices before edges
    assert all(idx[(v,)] < idx[e] for v in (1, 2, 3) for e in [(1, 2), (1, 3), (2, 3)])


def test_unit_sphere_of_figure_eight_center_is_four_isolated_points():
    g = figure_eight().skeleton_graph()
    s = unit_sphere(g, 2)
    assert sorted(s.vertices) == [1, 3, 5, 7]
    assert not s.edges


def _dimension_by_hand(adj, verts):
    verts = frozenset(verts)
    if not verts:
        return Fraction(-1)
    total = Fraction(0)
    for v in verts:
        total += 1 + _dimension_by_hand(adj, adj[v] & verts)
    return total / len(verts)


def test_inductive_dimension_of_rabbit():
    # Sphere dimensions at the five vertices are 1, 1, 1/2, 0, 0, so the
    # average-plus-one recursion lands on 3/2.  A second recursion written
    # directly on the adjacency sets must agree.
    g = rabbit().skeleton_graph()
    d = inductive_dimension(g)
    assert d == Fraction(3, 2)
    adj = {v: set(g.adj[v]) for v in g.vertices}
    assert _dimension_by_hand(adj, g.vertices) == d


def test_inductive_dimension_of_small_fixed_graphs():
    path = graph_from_edges([(1, 2), (2, 3)])
    assert inductive_dimension(path) == 1
    point = Graph([1], [])
    assert inductive_dimension(point) == 0
    assert inductive_dimension(Graph([], [])) == -1


def test_inductive_dimension_of_complete_graph():
    g = graph_from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert inductive_dimension(g) == 3


def test_euler_curvature_sums_to_euler_characteristic():
    """Gauss-Bonnet: curvatures over the vertices add up to chi."""
    rng = random.Random(7)
    for _ in range(25):
        facets = random_facets(rng)
        c = generate_complex(facets)
        g = c.skeleton_graph()
        chi = euler_characteristic(whitney_complex(g))
        total = sum(euler_curvature(g, v) for v in g.vertices)
        assert total == chi, f"Gauss-Bonnet fails on {facets}"


def test_poincare_hopf_indices_sum_to_euler_characteristic():
    rng = random.Random(8)
    for _ in range(25):
        facets = random_facets(rng)
        c = generate_complex(facets)
        g = c.skeleton_graph()
        chi = euler_characteristic(whitney_complex(g))
        # an injective function on the vertices
        vs = sorted(g.vertices)
        vals = list(range(len(vs)))
        rng.shuffle(vals)
        f = dict(zip(vs, vals))
        total = sum(poincare_hopf_index(g, f, v) for v in vs)
        assert total == chi, f"Poincare-Hopf fails on {facets}"


def _induced_by_edge_scan(g, vertices):
    return Graph(vertices, [(a, b) for (a, b) in g.edges
                            if a in vertices and b in vertices])


def test_unit_spheres_and_indices_match_the_edge_scan():
    """Both induced subgraphs equal the definition that scans every edge of
    g, written here as the oracle."""
    rng = random.Random(9)
    for _ in range(40):
        vs = list(range(rng.randint(1, 12)))
        g = Graph(vs, [e for e in combinations(vs, 2) if rng.random() < 0.4])
        vals = list(vs)
        rng.shuffle(vals)
        f = dict(zip(vs, vals))
        for v in vs:
            assert unit_sphere(g, v) == _induced_by_edge_scan(g, g.adj[v])
            below = frozenset(w for w in g.adj[v] if f[w] < f[v])
            chi = euler_characteristic(
                whitney_complex(_induced_by_edge_scan(g, below)))
            assert poincare_hopf_index(g, f, v) == 1 - chi


def test_zagreb_index_of_star():
    g = graph_from_edges([(0, i) for i in range(1, 5)])
    assert zagreb_index(g) == 16 + 4


def test_complex_equality_ignores_facet_order():
    a = generate_complex([(1, 2), (2, 3)])
    b = generate_complex([(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
