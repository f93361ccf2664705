"""Named example complexes and frozen expectation tables.

Builders return fresh Complex objects so callers can mutate nothing
shared; a builder of a Whitney complex builds its Graph inside, and no
builder returns one. The tables at the bottom drive the fixtures runner and
the acceptance suite: MAIN_TABLE holds (wu, betti) per complex and order k,
PAIR_TABLE holds the two-complex intersection fixtures. A few entries carry
notes where the published values contain slips; the stored numbers are the
ones consistent with Euler-Poincare, and the notes say what differs.
"""

from __future__ import annotations

from itertools import product as iter_product

from .ring import ProductComplex
from .simplicial import (
    Complex,
    Graph,
    barycentric_refinement,
    generate_complex,
    simplex_index_map,
    whitney_complex,
)


# ---------------------------------------------------------------------------
# complexes


def complete_complex(n: int) -> Complex:
    return generate_complex([tuple(range(1, n + 1))])


def cycle_complex(n: int) -> Complex:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    vs = range(1, n + 1)
    return whitney_complex(Graph(vs, [(i, i % n + 1) for i in vs]))


def path_complex(n: int = 3) -> Complex:
    vs = range(1, n + 1)
    return whitney_complex(Graph(vs, [(i, i + 1) for i in range(1, n)]))


def star_complex(n: int) -> Complex:
    """Star with center 0 and n rays."""
    rays = [(0, i) for i in range(1, n + 1)]
    return whitney_complex(Graph(range(n + 1), rays))


def bouquet(k: int) -> Complex:
    """k triangles glued at the center vertex 0 (circles, not filled)."""
    facets = []
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        facets += [(0, a), (a, b), (0, b)]
    return generate_complex(facets)


def figure_eight() -> Complex:
    facets = [(1, 2), (1, 4), (2, 3), (2, 5), (2, 7), (3, 4), (5, 6), (6, 7)]
    return generate_complex(facets)


def rabbit() -> Complex:
    return generate_complex([(1, 2, 3), (3, 4), (3, 5)])


def house() -> Complex:
    return generate_complex([(1, 2), (1, 4), (3, 4), (2, 3, 5)])


def octahedron() -> Complex:
    """Six vertices, all pairs adjacent except the three antipodal ones."""
    anti = {frozenset((1, 6)), frozenset((2, 5)), frozenset((3, 4))}
    vs = range(1, 7)
    edges = [(i, j) for i in vs for j in vs
             if i < j and frozenset((i, j)) not in anti]
    return whitney_complex(Graph(vs, edges))


def icosahedron() -> Complex:
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(5 + i, 5 + i % 5 + 1) for i in range(1, 6)]
    edges += [(11, 5 + i) for i in range(1, 6)]
    edges += [(i, 5 + i) for i in range(1, 6)]
    edges += [(i, 5 + i % 5 + 1) for i in range(1, 6)]
    return whitney_complex(Graph(range(12), edges))


def wheel_complex() -> Complex:
    """The 2-ball: four filled triangles joining hub 0 to the 4-cycle."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]
    return whitney_complex(Graph(range(5), edges))


def hypercube(d: int) -> Complex:
    """Whitney complex of the d-cube graph; it has no triangles."""
    vs = range(2 ** d)
    edges = [(u, u ^ (1 << b)) for u in vs for b in range(d)
             if u < u ^ (1 << b)]
    return whitney_complex(Graph(vs, edges))


def disk() -> Complex:
    """Refined 2-ball, used by the intersection fixtures below."""
    return barycentric_refinement(wheel_complex())


def cross_polytope(d: int) -> Complex:
    """Boundary of the (d+1)-dimensional cross polytope: a d-sphere."""
    pairs = [(2 * i + 1, 2 * i + 2) for i in range(d + 1)]
    return generate_complex(list(iter_product(*pairs)))


def three_sphere() -> Complex:
    return cross_polytope(3)


def four_sphere() -> Complex:
    return cross_polytope(4)


def moebius() -> Complex:
    facets = [(1, 2, 5), (1, 4, 5), (2, 3, 6), (2, 5, 6), (1, 4, 7),
              (3, 4, 7), (3, 6, 7)]
    return generate_complex(facets)


def cylinder() -> Complex:
    facets = [(1, 2, 5), (2, 3, 6), (3, 4, 7), (1, 4, 8), (1, 5, 8),
              (2, 5, 6), (3, 6, 7), (4, 7, 8)]
    return generate_complex(facets)


def klein_bottle() -> Complex:
    facets = [(1, 2, 3), (1, 2, 6), (1, 3, 5), (1, 4, 7), (1, 4, 8),
              (1, 5, 7), (1, 6, 8), (2, 3, 7), (2, 4, 6), (2, 4, 8),
              (2, 5, 7), (2, 5, 8), (3, 4, 6), (3, 4, 7), (3, 5, 6),
              (5, 6, 8)]
    return generate_complex(facets)


def projective_plane() -> Complex:
    facets = [(1, 2, 5), (1, 2, 9), (1, 4, 5), (1, 4, 7), (1, 8, 7),
              (1, 8, 9), (2, 3, 6), (2, 3, 10), (2, 5, 6), (2, 9, 10),
              (3, 6, 7), (3, 10, 11), (4, 3, 7), (4, 3, 11), (4, 5, 12),
              (4, 11, 12), (5, 6, 13), (5, 12, 13), (6, 7, 14), (6, 13, 14),
              (8, 7, 14), (8, 9, 15), (8, 14, 15), (9, 10, 15), (10, 11, 15),
              (11, 12, 15), (12, 13, 15), (13, 14, 15)]
    return generate_complex(facets)


POINCARE_SPHERE_FACETS = [
    (1, 2, 4, 9), (1, 2, 4, 15), (1, 2, 6, 14), (1, 2, 6, 15),
    (1, 2, 9, 14), (1, 3, 4, 12), (1, 3, 4, 15), (1, 3, 7, 10),
    (1, 3, 7, 12), (1, 3, 10, 15), (1, 4, 9, 12), (1, 5, 6, 13),
    (1, 5, 6, 14), (1, 5, 8, 11), (1, 5, 8, 13), (1, 5, 11, 14),
    (1, 6, 13, 15), (1, 7, 8, 10), (1, 7, 8, 11), (1, 7, 11, 12),
    (1, 8, 10, 13), (1, 9, 11, 12), (1, 9, 11, 14), (1, 10, 13, 15),
    (2, 3, 5, 10), (2, 3, 5, 11), (2, 3, 7, 10), (2, 3, 7, 13),
    (2, 3, 11, 13), (2, 4, 9, 13), (2, 4, 11, 13), (2, 4, 11, 15),
    (2, 5, 8, 11), (2, 5, 8, 12), (2, 5, 10, 12), (2, 6, 10, 12),
    (2, 6, 10, 14), (2, 6, 12, 15), (2, 7, 9, 13), (2, 7, 9, 14),
    (2, 7, 10, 14), (2, 8, 11, 15), (2, 8, 12, 15), (3, 4, 5, 14),
    (3, 4, 5, 15), (3, 4, 12, 14), (3, 5, 10, 15), (3, 5, 11, 14),
    (3, 7, 12, 13), (3, 11, 13, 14), (3, 12, 13, 14), (4, 5, 6, 7),
    (4, 5, 6, 14), (4, 5, 7, 15), (4, 6, 7, 11), (4, 6, 10, 11),
    (4, 6, 10, 14), (4, 7, 11, 15), (4, 8, 9, 12), (4, 8, 9, 13),
    (4, 8, 10, 13), (4, 8, 10, 14), (4, 8, 12, 14), (4, 10, 11, 13),
    (5, 6, 7, 13), (5, 7, 9, 13), (5, 7, 9, 15), (5, 8, 9, 12),
    (5, 8, 9, 13), (5, 9, 10, 12), (5, 9, 10, 15), (6, 7, 11, 12),
    (6, 7, 12, 13), (6, 10, 11, 12), (6, 12, 13, 15), (7, 8, 10, 14),
    (7, 8, 11, 15), (7, 8, 14, 15), (7, 9, 14, 15), (8, 12, 14, 15),
    (9, 10, 11, 12), (9, 10, 11, 16), (9, 10, 15, 16), (9, 11, 14, 16),
    (9, 14, 15, 16), (10, 11, 13, 16), (10, 13, 15, 16), (11, 13, 14, 16),
    (12, 13, 14, 15), (13, 14, 15, 16),
]


def poincare_sphere() -> Complex:
    """A triangulated homology 3-sphere on 16 vertices and 90 tetrahedra."""
    return generate_complex(POINCARE_SPHERE_FACETS)


def star3_x_star3() -> ProductComplex:
    return ProductComplex((star_complex(3), star_complex(3)))


# ---------------------------------------------------------------------------
# intersection fixtures


def _disk_idx():
    return simplex_index_map(wheel_complex())


def disk_inner_circle() -> Complex:
    """Circle inside the refined 2-ball, avoiding its boundary: it runs
    through the hub-edge midpoints and triangle centers."""
    idx = _disk_idx()
    edges = []
    for t in [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]:
        for e in [(0, t[1]), (0, t[2])]:
            edges.append((idx[e], idx[t]))
    return generate_complex(edges)


def disk_touching_circle() -> Complex:
    """Circle through the hub and one boundary vertex of the refined 2-ball."""
    idx = _disk_idx()
    edges = []
    for t in [(0, 1, 2), (0, 1, 4)]:
        edges.append((idx[(0,)], idx[t]))
        edges.append((idx[(1,)], idx[t]))
    return generate_complex(edges)


def disk_subdisk() -> Complex:
    """Closed hub star of the refined 2-ball: a smaller disk in the interior."""
    idx = _disk_idx()
    facets = []
    for t in [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4)]:
        for e in [(0, t[1]), (0, t[2])]:
            facets.append((idx[(0,)], idx[e], idx[t]))
    return generate_complex(facets)


def disk_inner_point() -> Complex:
    return generate_complex([(_disk_idx()[(0,)],)])


def disk_boundary_point() -> Complex:
    return generate_complex([(_disk_idx()[(1,)],)])


# ---------------------------------------------------------------------------
# frozen expectations

NAMED = {
    "K1": lambda: complete_complex(1),
    "K2": lambda: complete_complex(2),
    "K3": lambda: complete_complex(3),
    "K4": lambda: complete_complex(4),
    "C4": lambda: cycle_complex(4),
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "three_sphere": three_sphere,
    "four_sphere": four_sphere,
    "ball2": wheel_complex,
    "star3": lambda: star_complex(3),
    "star4": lambda: star_complex(4),
    "star5": lambda: star_complex(5),
    "star3_x_star3": star3_x_star3,
    "figure8": figure_eight,
    "bouquet3": lambda: bouquet(3),
    "bouquet4": lambda: bouquet(4),
    "bouquet5": lambda: bouquet(5),
    "rabbit": rabbit,
    "house": house,
    "cube": lambda: hypercube(3),
    "tesseract": lambda: hypercube(4),
    "moebius": moebius,
    "cylinder": cylinder,
    "projective_plane": projective_plane,
    "klein_bottle": klein_bottle,
    "poincare_sphere": poincare_sphere,
}

# (name, k) -> (wu characteristic, betti vector). Exact integers.
MAIN_TABLE = {
    ("K1", 1): (1, (1,)),
    ("K1", 2): (1, (1,)),
    ("K1", 3): (1, (1,)),
    ("K2", 1): (1, (1, 0)),
    ("K2", 2): (-1, (0, 1, 0)),
    ("K2", 3): (1, (0, 0, 1, 0)),
    ("K3", 1): (1, (1, 0, 0)),
    ("K3", 2): (1, (0, 0, 1, 0, 0)),
    ("K3", 3): (1, (0, 0, 0, 0, 1, 0, 0)),
    ("K4", 1): (1, (1, 0, 0, 0)),
    ("K4", 2): (-1, (0, 0, 0, 1, 0, 0, 0)),
    ("K4", 3): (1, (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    ("C4", 1): (0, (1, 1)),
    ("C4", 2): (0, (0, 1, 1)),
    ("C4", 3): (0, (0, 0, 1, 1)),
    ("octahedron", 1): (2, (1, 0, 1)),
    ("octahedron", 2): (2, (0, 0, 1, 0, 1)),
    ("octahedron", 3): (2, (0, 0, 0, 0, 1, 0, 1)),
    ("icosahedron", 1): (2, (1, 0, 1)),
    ("icosahedron", 2): (2, (0, 0, 1, 0, 1)),
    ("icosahedron", 3): (2, (0, 0, 0, 0, 1, 0, 1)),
    ("three_sphere", 1): (0, (1, 0, 0, 1)),
    ("three_sphere", 2): (0, (0, 0, 0, 1, 0, 0, 1)),
    ("three_sphere", 3): (0, (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)),
    ("four_sphere", 1): (2, (1, 0, 0, 0, 1)),
    ("four_sphere", 2): (2, (0, 0, 0, 0, 1, 0, 0, 0, 1)),
    ("four_sphere", 3): (2, (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1)),
    ("ball2", 1): (1, (1, 0, 0)),
    ("ball2", 2): (1, (0, 0, 1, 0, 0)),
    ("ball2", 3): (1, (0, 0, 0, 0, 1, 0, 0)),
    ("star3", 1): (1, (1, 0)),
    ("star3", 2): (1, (0, 0, 1)),
    ("star3", 3): (-5, (0, 0, 0, 5)),
    ("star4", 1): (1, (1, 0)),
    ("star4", 2): (5, (0, 0, 5)),
    ("star4", 3): (-23, (0, 0, 0, 23)),
    ("star5", 1): (1, (1, 0)),
    ("star5", 2): (11, (0, 0, 11)),
    ("star5", 3): (-59, (0, 0, 0, 59)),
    ("star3_x_star3", 1): (1, (1, 0)),
    ("star3_x_star3", 2): (1, (0, 0, 0, 0, 1)),
    ("star3_x_star3", 3): (25, (0, 0, 0, 0, 0, 0, 25)),
    ("figure8", 1): (-1, (1, 2)),
    ("figure8", 2): (7, (0, 0, 7)),
    ("figure8", 3): (-25, (0, 0, 0, 25)),
    ("bouquet3", 1): (-2, (1, 3)),
    ("bouquet3", 2): (22, (0, 0, 22)),
    ("bouquet3", 3): (-122, (0, 0, 0, 122)),
    ("bouquet4", 1): (-3, (1, 4)),
    ("bouquet4", 2): (45, (0, 0, 45)),
    ("bouquet4", 3): (-339, (0, 0, 0, 339)),
    ("bouquet5", 1): (-4, (1, 5)),
    ("bouquet5", 2): (76, (0, 0, 76)),
    ("bouquet5", 3): (-724, (0, 0, 0, 724)),
    ("rabbit", 1): (1, (1, 0)),
    ("rabbit", 2): (3, (0, 0, 3, 0, 0)),
    ("rabbit", 3): (-5, (0, 0, 0, 6, 1, 0, 0)),
    ("house", 1): (0, (1, 1)),
    ("house", 2): (2, (0, 0, 2, 0, 0)),
    ("house", 3): (0, (0, 0, 0, 1, 1, 0, 0)),
    ("cube", 1): (-4, (1, 5)),
    ("cube", 2): (20, (0, 0, 20)),
    ("cube", 3): (-52, (0, 0, 0, 52)),
    ("tesseract", 1): (-16, (1, 17)),
    ("tesseract", 2): (112, (0, 0, 112)),
    ("tesseract", 3): (-400, (0, 0, 0, 400)),
    ("moebius", 1): (0, (1, 1, 0)),
    ("moebius", 2): (0, (0, 0, 0, 0, 0)),
    ("moebius", 3): (0, (0, 0, 0, 0, 1, 1, 0)),
    ("cylinder", 1): (0, (1, 1, 0)),
    ("cylinder", 2): (0, (0, 0, 1, 1, 0)),
    ("cylinder", 3): (0, (0, 0, 0, 0, 1, 1, 0)),
    ("projective_plane", 1): (1, (1, 0, 0)),
    ("projective_plane", 2): (1, (0, 0, 0, 0, 1)),
    ("projective_plane", 3): (1, (0, 0, 0, 0, 1, 0, 0)),
    ("klein_bottle", 1): (0, (1, 1, 0)),
    ("klein_bottle", 2): (0, (0, 0, 0, 1, 1)),
    ("klein_bottle", 3): (0, (0, 0, 0, 0, 1, 1, 0)),
}

# Published values the stored expectations deviate from, with the reason.
MAIN_TABLE_NOTES = {
    ("bouquet4", 2): "published betti (0,0,35) fails Euler-Poincare; 45 is "
                     "forced by wu=45 and by the bouquet count 4k^2-5k+1",
    ("tesseract", 1): "published betti (14,30) is not a Betti vector of a "
                      "connected graph; (1,17) matches chi = 16 - 32 = -16",
    ("projective_plane", 3): "published betti (0,0,0,0,0,0,1) disagrees with "
                             "two independent computations on the published "
                             "facet list, which both give (0,0,0,0,1,0,0); "
                             "same supersum 1",
    ("klein_bottle", 3): "published betti (0,0,0,0,0,1,1) disagrees with two "
                         "independent computations on the published facet "
                         "list, which both give (0,0,0,0,1,1,0); same "
                         "supersum 0",
}

# Cases too expensive for the default acceptance run. The cubic basis of
# the 4-sphere has 4.58 million tuples; everything else finishes in
# seconds.
GATES = {
    "large": {("four_sphere", 3)},
}

# name -> (G builder, H builder, wu, betti, note or None)
PAIR_TABLE = [
    ("interval_interval",
     lambda: path_complex(3), lambda: path_complex(3),
     -1, (0, 1, 0), None),
    ("interval_inner_point",
     lambda: path_complex(3), lambda: generate_complex([(2,)]),
     -1, (0, 1), None),
    ("interval_boundary_point",
     lambda: path_complex(3), lambda: generate_complex([(1,)]),
     0, (0, 0), None),
    ("circle_circle",
     lambda: cycle_complex(4), lambda: cycle_complex(4),
     0, (0, 1, 1), None),
    ("circle_point",
     lambda: cycle_complex(4), lambda: generate_complex([(1,)]),
     -1, (0, 1), None),
    ("circle_two_points",
     lambda: cycle_complex(4), lambda: generate_complex([(1,), (3,)]),
     -2, (0, 2), None),
    ("circle_interval",
     lambda: cycle_complex(4), lambda: generate_complex([(1, 2)]),
     -1, (0, 1, 0), None),
    ("star_star",
     lambda: star_complex(5), lambda: star_complex(5),
     11, (0, 0, 11), None),
    ("star_center",
     lambda: star_complex(5), lambda: generate_complex([(0,)]),
     -4, (0, 4),
     "published as wu=4; the pairs (x, center) sum to 1-5=-4, which also "
     "matches Euler-Poincare of the published betti vector (0,4)"),
    ("star_boundary_point",
     lambda: star_complex(5), lambda: generate_complex([(1,)]),
     0, (0, 0), None),
    ("star_interval",
     lambda: star_complex(5), lambda: generate_complex([(0, 1)]),
     -1, (0, 1, 0), None),
    ("disk_inner_circle",
     disk, disk_inner_circle,
     0, (0, 0, 1, 1), None),
    ("disk_touching_circle",
     disk, disk_touching_circle,
     1, (0, 0, 1, 0), None),
    ("disk_subdisk",
     disk, disk_subdisk,
     1, (0, 0, 1, 0, 0),
     "published betti (0,0,1,0) omits the empty top grade"),
    ("disk_inner_point",
     disk, disk_inner_point,
     1, (0, 0, 1), None),
    ("disk_boundary_point",
     disk, disk_boundary_point,
     0, (0, 0, 0), None),
]


def pair_fixtures():
    return [(name, bg(), bh(), wu, betti, note)
            for name, bg, bh, wu, betti, note in PAIR_TABLE]
