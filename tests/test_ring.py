import random

import pytest

from wucalc.basis import (
    euler_polynomial, multivariate_euler_polynomial, wu_characteristic,
)
from wucalc.catalog import (
    complete_complex, cycle_complex, generate_complex, path_complex,
    star3_x_star3, star_complex,
)
from wucalc.cohomology import normalize_complexes
from wucalc.ring import (
    ProductComplex, RingElement, disjoint_union, kuenneth_check, poly_mul,
    product_cell_complex, ring_betti, ring_wu,
)
from wucalc.simplicial import MAX_SIMPLICES, Complex, f_vector

from oracles import random_facets, ring_euler_polynomial


def test_kuenneth_on_the_named_pairs():
    pairs = [
        (complete_complex(2), complete_complex(2)),
        (cycle_complex(4), cycle_complex(4)),
        (star_complex(3), star_complex(3)),
    ]
    for g, h in pairs:
        for k in (1, 2):
            res = kuenneth_check(g, h, k)
            assert res["kuenneth_ok"]
            assert res["poincare_product"] == res["poincare_expected"]
            assert res["poincare_expected"] == poly_mul(*res["poincare_factors"])


def test_kuenneth_on_random_pairs():
    rng = random.Random(123)
    for _ in range(10):
        g = generate_complex(random_facets(rng, max_vertices=5, max_size=2))
        h = generate_complex(random_facets(rng, max_vertices=5, max_size=2))
        assert kuenneth_check(g, h, 2)["kuenneth_ok"]


def test_wu_is_multiplicative_over_the_cell_product():
    rng = random.Random(321)
    for _ in range(20):
        g = generate_complex(random_facets(rng, max_vertices=5))
        h = generate_complex(random_facets(rng, max_vertices=5))
        pc = product_cell_complex([g, h])
        for k in (1, 2):
            wg = wu_characteristic(tuple(normalize_complexes(g, k)))
            wh = wu_characteristic(tuple(normalize_complexes(h, k)))
            assert ring_wu(pc, k) == wg * wh


def test_wu_is_additive_over_the_disjoint_union():
    rng = random.Random(654)
    for _ in range(15):
        g = generate_complex(random_facets(rng, max_vertices=5))
        h = generate_complex(random_facets(rng, max_vertices=5))
        u = disjoint_union(g, h)
        for k in (1, 2):
            wg = wu_characteristic(tuple(normalize_complexes(g, k)))
            wh = wu_characteristic(tuple(normalize_complexes(h, k)))
            assert wu_characteristic(tuple(normalize_complexes(u, k))) == wg + wh


def test_euler_polynomial_is_a_ring_homomorphism():
    """Products map to polynomial products, unions to sums, on random pairs."""
    rng = random.Random(987)
    for _ in range(50):
        g = generate_complex(random_facets(rng, max_vertices=5))
        h = generate_complex(random_facets(rng, max_vertices=5))
        eg = multivariate_euler_polynomial(g, 1)
        eh = multivariate_euler_polynomial(h, 1)
        pg = [eg.get((i,), 0) for i in range(max(i for i, in eg) + 1)]
        ph = [eh.get((i,), 0) for i in range(max(i for i, in eh) + 1)]
        pc = product_cell_complex([g, h])
        assert ring_euler_polynomial(pc) == poly_mul(pg, ph)
        n = max(len(pg), len(ph))
        summed = [(pg + [0] * n)[i] + (ph + [0] * n)[i] for i in range(n)]
        eu = multivariate_euler_polynomial(disjoint_union(g, h), 1)
        assert [eu.get((i,), 0) for i in range(n)] == summed


def test_printed_polynomials_of_the_interval():
    K2 = complete_complex(2)
    assert multivariate_euler_polynomial(K2, 1) == {(0,): 2, (1,): 1}
    assert multivariate_euler_polynomial(K2, 2) == {
        (0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 1,
    }
    assert multivariate_euler_polynomial(K2, 3) == {
        (0, 0, 0): 2, (1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): 2,
        (1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2, (1, 1, 1): 1,
    }


def test_printed_polynomials_of_the_triangle():
    K3 = complete_complex(3)
    assert multivariate_euler_polynomial(K3, 1) == {(0,): 3, (1,): 3, (2,): 1}
    assert multivariate_euler_polynomial(K3, 2) == {
        (0, 0): 3, (0, 1): 6, (0, 2): 3,
        (1, 0): 6, (1, 1): 9, (1, 2): 3,
        (2, 0): 3, (2, 1): 3, (2, 2): 1,
    }


def test_product_cells_pair_dimensions_additively():
    g = complete_complex(2)
    h = cycle_complex(4)
    pc = product_cell_complex([g, h])
    fv = list(f_vector(pc))
    assert sum(fv) == len(g) * len(h)
    for cell in pc.cells:
        a, b = cell
        assert len(a) - 1 + len(b) - 1 == pc.cell_dim(cell)
    assert euler_polynomial(pc) == ring_euler_polynomial(pc)
    # counted from the cells: a product with an empty factor has none
    empty = ProductComplex((g, Complex([])))
    assert f_vector(empty) == ()
    assert euler_polynomial(empty) == ring_euler_polynomial(empty) == [0]
    # so it adds nothing to a sum, not even trailing zeros
    e = RingElement([(1, (g,))]) + RingElement([(1, empty.factors)])
    assert ring_euler_polynomial(e) == [2, 1]


def test_a_product_over_the_cell_budget_is_refused_before_its_cells(
        monkeypatch):
    def unlisted(*parts):
        raise AssertionError("cells listed")

    facet = generate_complex([range(12)])
    assert len(facet) ** 2 > MAX_SIMPLICES
    # a product lists its cells with itertools.product
    monkeypatch.setattr("wucalc.ring.iter_product", unlisted)
    with pytest.raises(ValueError, match="more than"):
        ProductComplex((facet, facet))
    with pytest.raises(ValueError, match="more than"):
        kuenneth_check(facet, facet, 1)


def test_product_cell_boundary_follows_the_leibniz_rule():
    pc = product_cell_complex([path_complex(3), complete_complex(3)])
    # the faces of the second part carry (-1)^(dim of the first part)
    assert dict(pc.cell_boundary(((1, 2), (1, 2, 3)))) == {
        ((2,), (1, 2, 3)): 1,
        ((1,), (1, 2, 3)): -1,
        ((1, 2), (2, 3)): -1,
        ((1, 2), (1, 3)): 1,
        ((1, 2), (1, 2)): -1,
    }
    assert pc.cell_boundary(((1,), (2,))) == []


def test_product_boundary_squares_to_zero():
    pc = star3_x_star3()
    for cell in pc.cells:
        acc = {}
        for face, s in pc.cell_boundary(cell):
            for ff, t in pc.cell_boundary(face):
                acc[ff] = acc.get(ff, 0) + s * t
        assert not any(acc.values()), cell


def test_ring_element_arithmetic_matches_componentwise_data():
    g = complete_complex(3)
    h = star_complex(3)
    e = RingElement([(1, (g,))]) * RingElement([(1, (h,))])
    two = RingElement([(2, (g,))])
    assert ring_wu(two, 1) == 2 * ring_wu(RingElement([(1, (g,))]), 1)
    assert ring_wu(e, 2) == ring_wu(g, 2) * ring_wu(h, 2)
    b = ring_betti(e, 2)
    factor_b = poly_mul(ring_betti(g, 2), ring_betti(h, 2))
    assert b == factor_b


def test_poly_mul_is_plain_convolution():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([2], [3, 4]) == [6, 8]
    assert poly_mul([0, 1], [0, 1]) == [0, 0, 1]
