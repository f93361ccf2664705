import random

from wucalc.basis import wu_characteristic
from wucalc.catalog import (
    barycentric_refinement, generate_complex, octahedron, path_complex,
)
from wucalc.connection import (
    connection_complex, connection_graph, connection_matrix,
    fermi_characteristic, fredholm_characteristic, wu_via_connection_trace,
)
from wucalc.simplicial import f_vector, inclusion_edges

from oracles import fraction_det, random_facets


def test_path_connection_graph_by_hand():
    # Cells of the 3 vertex path in order: three vertices then two edges.
    # A vertex meets an edge exactly when it lies on it, and the two edges
    # meet at the middle vertex.
    p3 = path_complex(3)
    g = connection_graph(p3)
    assert sorted(g.vertices) == [0, 1, 2, 3, 4]
    assert sorted(g.edges) == [(0, 3), (1, 3), (1, 4), (2, 4), (3, 4)]


def test_connection_matrix_is_the_intersection_indicator():
    rng = random.Random(11)
    for _ in range(10):
        c = generate_complex(random_facets(rng, max_vertices=6))
        cells = list(c.cells)
        m = connection_matrix(c)
        for i, x in enumerate(cells):
            for j, y in enumerate(cells):
                expected = 1 if set(x) & set(y) else 0
                assert m[i][j] == expected


def test_fredholm_equals_the_connection_determinant():
    rng = random.Random(22)
    for _ in range(10):
        c = generate_complex(random_facets(rng, max_vertices=6))
        m = [[int(v) for v in row] for row in connection_matrix(c)]
        assert fredholm_characteristic(c) == fraction_det(m)


def test_fermi_counts_odd_simplices():
    rng = random.Random(33)
    for _ in range(10):
        c = generate_complex(random_facets(rng))
        odd = sum(n for i, n in enumerate(f_vector(c)) if i % 2 == 1)
        assert fermi_characteristic(c) == (-1) ** odd


def test_unimodularity_on_random_complexes():
    """Fredholm determinant and Fermi parity agree and are both units."""
    rng = random.Random(44)
    for _ in range(40):
        c = generate_complex(random_facets(rng))
        psi = fredholm_characteristic(c)
        assert psi in (-1, 1)
        assert psi == fermi_characteristic(c)


def test_refinements_have_positive_fredholm_characteristic():
    rng = random.Random(55)
    for _ in range(10):
        c = generate_complex(random_facets(rng, max_vertices=5, max_facets=4))
        r = barycentric_refinement(c)
        assert fredholm_characteristic(r) == 1
        assert fermi_characteristic(r) == 1


def test_connection_trace_identity():
    rng = random.Random(66)
    for _ in range(20):
        c = generate_complex(random_facets(rng))
        assert wu_via_connection_trace(c) == wu_characteristic((c, c))
    assert wu_via_connection_trace(path_complex(3)) == -1


def test_inclusion_edges_sit_inside_the_connection_graph():
    rng = random.Random(77)
    for _ in range(10):
        c = generate_complex(random_facets(rng))
        cells = list(c.cells)
        conn = {frozenset(e) for e in connection_graph(c).edges}
        for i, j in inclusion_edges(c):
            assert frozenset((i, j)) in conn
            a, b = cells[i], cells[j]
            small, big = (a, b) if len(a) < len(b) else (b, a)
            assert set(small) < set(big)


def test_octahedron_connection_complex_f_vector():
    cc = connection_complex(octahedron())
    assert list(f_vector(cc)) == [26, 180, 556, 918, 900, 560, 224, 54, 6]
