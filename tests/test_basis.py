import random
from collections import Counter

import pytest

from wucalc.basis import (
    build_basis, eval_multivariate, euler_polynomial, f_matrix, f_tensor,
    multivariate_euler_polynomial, polynomial_string, wu_characteristic,
)
from wucalc.catalog import (
    complete_complex, generate_complex, path_complex, rabbit, star_complex,
)
from wucalc.cohomology import normalize_complexes
from wucalc.ring import ProductComplex
from wucalc.simplicial import Complex, Graph, whitney_complex, zagreb_index

from oracles import (
    common_product_tuples, common_tuples, naive_wu, random_facets,
)


def test_order_one_basis_lists_the_cells_by_dimension():
    c = generate_complex([(1, 2, 3), (3, 4)])
    b = build_basis((c,))
    flat = [t[0] for g in b.grades for t in g]
    assert flat == list(c.cells)
    for p, grade in enumerate(b.grades):
        assert all(len(t[0]) == p + 1 for t in grade)


def test_three_triangle_edges_share_no_vertex_and_are_excluded():
    # The edges of a triangle meet pairwise but have empty common
    # intersection, so the tuple of all three is not an interaction.
    K3 = complete_complex(3)
    b = build_basis((K3, K3, K3))
    edges = ((1, 2), (1, 3), (2, 3))
    assert edges not in b.index
    assert ((1, 2), (1, 3), (1, 2)) in b.index
    for grade in b.grades:
        for t in grade:
            common = set(t[0])
            for part in t[1:]:
                common &= set(part)
            assert common, f"basis tuple {t} has empty common intersection"


def test_basis_tuples_match_brute_force_enumeration():
    rng = random.Random(2024)
    for _ in range(20):
        facets = random_facets(rng, max_vertices=6, max_facets=5)
        c = generate_complex(facets)
        for k in (2, 3):
            b = build_basis(tuple(normalize_complexes(c, k)))
            ours = sorted(t for g in b.grades for t in g)
            naive = sorted(common_tuples([list(c.cells)] * k))
            assert ours == naive


def test_product_basis_matches_component_wise_brute_force():
    rng = random.Random(1517)
    for _ in range(15):
        pc = ProductComplex([
            generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                           max_size=3))
            for _ in range(2)])
        for k in (1, 2, 3):
            b = build_basis([pc] * k)
            naive = common_product_tuples([pc.cells] * k)
            assert sorted(t for g in b.grades for t in g) == sorted(naive)
            for p, grade in enumerate(b.grades):
                assert all(sum(pc.cell_dim(x) for x in t) == p for t in grade)
            assert wu_characteristic([pc] * k) == sum(
                (-1) ** sum(pc.cell_dim(x) for x in t) for t in naive)


def test_mixing_a_complex_with_a_product_is_refused():
    c = generate_complex([(1, 2)])
    pc = ProductComplex([c, c])
    for systems in ([c, pc], [pc, c], [pc, pc, c]):
        with pytest.raises(ValueError):
            build_basis(systems)
        with pytest.raises(ValueError):
            wu_characteristic(systems)


def test_grades_are_indexed_by_total_dimension():
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5)])
    b = build_basis((c, c))
    for p, grade in enumerate(b.grades):
        for t in grade:
            total = sum(len(x) - 1 for x in t)
            assert total == p
    for t, (p, i) in b.index.items():
        assert b.grades[p][i] == t


def test_wu_characteristic_equals_signed_tuple_count():
    rng = random.Random(515)
    for _ in range(30):
        facets = random_facets(rng)
        c = generate_complex(facets)
        for k in (1, 2, 3):
            got = wu_characteristic(tuple(normalize_complexes(c, k)))
            assert got == naive_wu([list(c.cells)] * k)


def test_wu_characteristic_on_mixed_pairs():
    rng = random.Random(99)
    for _ in range(20):
        a = generate_complex(random_facets(rng, max_vertices=6))
        bfac = random_facets(rng, max_vertices=6)
        b = generate_complex(bfac)
        got = wu_characteristic((a, b))
        assert got == naive_wu([list(a.cells), list(b.cells)])


def test_wu_of_complete_complexes_alternates_with_dimension():
    for d in range(1, 5):
        K = complete_complex(d + 1)
        for k in (1, 2, 3):
            expected = (-1) ** (d * (k - 1))
            assert wu_characteristic(tuple(normalize_complexes(K, k))) == expected


def test_printed_f_matrices():
    assert f_matrix(complete_complex(3)) == [[3, 6, 3], [6, 9, 3], [3, 3, 1]]
    assert f_matrix(path_complex(3)) == [[3, 4], [4, 4]]
    assert f_matrix(rabbit()) == [[5, 10, 3], [10, 21, 5], [3, 5, 1]]


def test_f_matrix_supersum_is_the_wu_characteristic():
    rng = random.Random(7171)
    for _ in range(20):
        c = generate_complex(random_facets(rng))
        m = f_matrix(c)
        total = sum((-1) ** (i + j) * v
                    for i, row in enumerate(m) for j, v in enumerate(row))
        assert total == wu_characteristic((c, c))


def test_f_tensor_diagonal_symmetry_and_total():
    c = generate_complex([(1, 2, 3), (3, 4)])
    t = f_tensor(c, 3)
    b = build_basis((c, c, c))
    total = sum(sum(sum(row) for row in plane) for plane in t)
    assert total == sum(len(g) for g in b.grades)
    n = len(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert t[i][j][k] == t[k][j][i]


def test_profile_counts_match_brute_force_enumeration():
    rng = random.Random(2741)
    for _ in range(15):
        c = generate_complex(random_facets(rng))
        for k in (1, 2, 3):
            naive = Counter(tuple(len(x) - 1 for x in t)
                            for t in common_tuples([c.cells] * k))
            assert multivariate_euler_polynomial(c, k) == naive


def test_the_complex_with_no_cells_has_no_tuples():
    c = Complex([])
    for k in (1, 2, 3):
        b = build_basis([c] * k)
        assert b.grades == [] and b.index == {}
        assert wu_characteristic([c] * k) == 0
        assert f_tensor(c, k) == []


def test_euler_polynomial_coefficients_count_simplices():
    """e(G)(t) has the f-vector as coefficient list, so e(K3) = 3+3t+t^2."""
    assert euler_polynomial(complete_complex(3)) == [3, 3, 1]
    assert euler_polynomial(path_complex(3)) == [3, 2]
    assert euler_polynomial(star_complex(3)) == [4, 3]


def test_multivariate_polynomial_at_minus_one_gives_wu():
    rng = random.Random(40)
    for _ in range(15):
        c = generate_complex(random_facets(rng, max_vertices=6))
        for k in (2, 3):
            poly = multivariate_euler_polynomial(c, k)
            value = eval_multivariate(poly, [-1] * k)
            assert value == wu_characteristic(tuple(normalize_complexes(c, k)))


def test_multivariate_polynomial_at_one_counts_tuples():
    c = generate_complex([(1, 2, 3), (3, 4)])
    poly = multivariate_euler_polynomial(c, 2)
    b = build_basis((c, c))
    assert eval_multivariate(poly, [1, 1]) == sum(len(g) for g in b.grades)


def test_polynomial_string_of_the_interval():
    assert polynomial_string(
        multivariate_euler_polynomial(complete_complex(2), 1)) == "2 + t"
    assert polynomial_string(
        multivariate_euler_polynomial(complete_complex(2), 2)) == \
        "2 + 2*s + 2*t + t*s"


def test_tree_formula_via_zagreb_index():
    # For a triangle-free graph, the order 2 characteristic is
    # n - 5m + zagreb; on a tree with n vertices this is 5 - 4n + zagreb.
    rng = random.Random(606)
    for _ in range(25):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        g = Graph(range(n), edges)
        c = whitney_complex(g)
        w2 = wu_characteristic((c, c))
        assert w2 == 5 - 4 * n + zagreb_index(g)
        assert w2 == n - 5 * len(g.edges) + zagreb_index(g)


def test_triangle_free_formula_on_even_cycles():
    for n in (4, 6, 8):
        g = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
        c = whitney_complex(g)
        assert wu_characteristic((c, c)) == n - 5 * n + zagreb_index(g)
