import gc
import random
import tracemalloc
from array import array
from collections import Counter

import pytest

from wucalc import basis, catalog
from wucalc.connection import connection_graph
from wucalc.basis import (
    build_basis, euler_polynomial, f_matrix, f_tensor,
    multivariate_euler_polynomial, polynomial_string, wu_characteristic,
)
from wucalc.catalog import (
    complete_complex, generate_complex, path_complex, rabbit, star_complex,
)
from wucalc.cli import MAX_ORDER
from wucalc.cohomology import betti_vector, normalize_complexes
from wucalc.ring import ProductComplex
from wucalc.simplicial import Complex, Graph, whitney_complex, zagreb_index

from oracles import (
    _bits, common_product_tuples, common_tuples, eval_multivariate,
    naive_wu, random_facets, tuple_grades, tuple_index, walk_codes,
    walk_profile_counts,
)


def test_order_one_basis_lists_the_cells_by_dimension():
    c = generate_complex([(1, 2, 3), (3, 4)])
    b = build_basis((c,))
    flat = [t[0] for g in tuple_grades(b) for t in g]
    assert flat == list(c.cells)
    for p, grade in enumerate(tuple_grades(b)):
        assert all(len(t[0]) == p + 1 for t in grade)


def test_three_triangle_edges_share_no_vertex_and_are_excluded():
    # The edges of a triangle meet pairwise but have empty common
    # intersection, so the tuple of all three is not an interaction.
    K3 = complete_complex(3)
    b = build_basis((K3, K3, K3))
    edges = ((1, 2), (1, 3), (2, 3))
    assert edges not in tuple_index(b)
    assert ((1, 2), (1, 3), (1, 2)) in tuple_index(b)
    for grade in tuple_grades(b):
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
            ours = sorted(t for g in tuple_grades(b) for t in g)
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
            grades = tuple_grades(b)
            assert sorted(t for g in grades for t in g) == sorted(naive)
            for p, grade in enumerate(grades):
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


def _tables_built(monkeypatch):
    """A list that grows by one for every walk table built, one per
    distinct complex of a walk."""
    built = []
    table = basis._table
    monkeypatch.setattr(basis, "_table",
                        lambda system: built.append(system) or table(system))
    return built


def test_the_tuple_budget_is_a_lower_bound_on_the_walk(monkeypatch):
    # the count checked against the budget is the walk's own count: at a
    # budget of that count nothing is refused, one below it everything is
    rng = random.Random(3301)
    cases = []
    for _ in range(15):
        c = generate_complex(random_facets(rng))
        d = generate_complex(random_facets(rng))
        cases += [[c] * k for k in (1, 2, 3)] + [[c, d], [c, d, c]]
        pc = ProductComplex([c, d])
        cases += [[pc], [pc, pc]]
    for systems in cases:
        count = sum(walk_profile_counts(systems).values())
        monkeypatch.setattr(basis, "MAX_TUPLES", count)
        assert sum(build_basis(systems).grade_sizes()) == count
        monkeypatch.setattr(basis, "MAX_TUPLES", count - 1)
        for walk in (build_basis, wu_characteristic):
            with pytest.raises(ValueError, match="tuple budget"):
                walk(systems)
        monkeypatch.undo()


def test_walks_over_the_tuple_budget_are_refused_before_they_start(
        monkeypatch):
    # two triangles sharing an edge: 3,482,721 8-tuples meet, within the
    # budget, and 20,657,951 9-tuples, over it (6**k of them meet at a
    # vertex that lies in 6 simplices); no tuple table is built for them
    two = generate_complex([(0, 1, 2), (1, 2, 3)])
    assert sum(basis.grade_counts([two] * 8)) == 3_482_721
    built = _tables_built(monkeypatch)
    for k in (9, 10, 40):
        for walk in (build_basis, wu_characteristic):
            with pytest.raises(ValueError, match="tuple budget"):
                walk([two] * k)
    assert built == []


def test_walks_past_the_tuple_budget_are_refused_as_they_count(monkeypatch):
    # three disjoint edges: a vertex lies in 2 simplices, so only 2**4 = 16
    # 4-tuples meet at one vertex, but each edge carries 2 * 2**4 - 1 = 31
    # tuples; the exact count of all three is checked before any walk
    three = generate_complex([(1, 2), (3, 4), (5, 6)])
    systems = [three] * 4
    assert sum(walk_profile_counts(systems).values()) == 93
    monkeypatch.setattr(basis, "MAX_TUPLES", 93)
    assert sum(build_basis(systems).grade_sizes()) == 93
    monkeypatch.setattr(basis, "MAX_TUPLES", 50)
    built = _tables_built(monkeypatch)
    for walk in (build_basis, wu_characteristic):
        with pytest.raises(ValueError, match="at least 93 intersecting"):
            walk(systems)
    assert built == []


def test_disconnected_inputs_are_refused_by_their_component_sum(monkeypatch):
    # 500 disjoint edges: each vertex lies in 2 simplices, so 2**16 16-tuples
    # meet at one vertex, within the budget, but the 500 components together
    # carry 1000 * 2**16 - 500 > 2**24 tuples
    edges500 = generate_complex([(2 * i, 2 * i + 1) for i in range(500)])
    assert 2 ** 16 < basis.MAX_TUPLES < 500 * 2 ** 16
    built = _tables_built(monkeypatch)
    for walk in (build_basis, wu_characteristic):
        with pytest.raises(ValueError,
                           match=f"at least {1000 * 2 ** 16 - 500} "):
            walk([edges500] * 16)
    assert built == []


def test_every_catalog_row_is_under_the_tuple_budget():
    for name, k in catalog.MAIN_TABLE:
        assert sum(basis.grade_counts([catalog.NAMED[name]()] * k)) \
            <= basis.MAX_TUPLES
    for _, g, h, *_ in catalog.pair_fixtures():
        assert sum(basis.grade_counts([g, h])) <= basis.MAX_TUPLES


def test_face_counts_match_the_walk_oracle():
    # one complex at k = 1..3, mixed pairs and triples, products at k = 1
    # and 2 (with a product of another arity, which no cell meets); the
    # grade sizes of the basis are the counts summed by total dimension
    rng = random.Random(2626)
    cases = []
    for _ in range(60):
        c = generate_complex(random_facets(rng))
        cases += [[c] * k for k in (1, 2, 3)]
    for _ in range(50):
        cs = [generate_complex(random_facets(rng)) for _ in range(3)]
        cases += [cs[:2], [cs[0], cs[1], cs[0]], cs]
    for _ in range(15):
        a, b = (generate_complex(random_facets(rng, max_vertices=4,
                                               max_facets=3))
                for _ in range(2))
        pc, pd = ProductComplex([a, b]), ProductComplex([b, a])
        cases += [[pc], [pc, pc], [pc, pd]]
    cases.append([pc, ProductComplex([a, b, a])])
    assert len(cases) >= 200
    for systems in cases:
        counts = basis.profile_counts(systems)
        assert counts == walk_profile_counts(systems), systems
        by_grade = [0] * (max(map(sum, counts), default=-1) + 1)
        for profile, n in counts.items():
            by_grade[sum(profile)] += n
        assert build_basis(systems).grade_sizes() == by_grade
        assert basis.grade_counts(systems) == by_grade


def test_a_walk_frees_its_context_without_a_collection(monkeypatch):
    # the walk makes no reference cycle, so its tables are freed when the
    # call returns, not at the next full collection: with the collector
    # off, a collection after each call finds nothing to free
    built = _tables_built(monkeypatch)
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5, 6)])
    gc.collect()
    gc.disable()
    try:
        for call in (lambda: build_basis([c, c]),
                     lambda: build_basis([c, c, c]),
                     lambda: connection_graph(c)):
            built.clear()
            call()
            assert built == [c] and gc.collect() == 0
    finally:
        gc.enable()


def test_star_walk_codes_match_the_bitset_oracle():
    # one complex at k = 1..3, mixed pairs and triples (some sharing no
    # vertex), products at k = 1 and 2 and the empty complex: the codes
    # of every grade, in walk order, are those of the bitset walk
    rng = random.Random(2727)
    cases = []
    for _ in range(40):
        c = generate_complex(random_facets(rng))
        cases += [[c] * k for k in (1, 2, 3)]
    for _ in range(40):
        cs = [generate_complex(random_facets(rng)) for _ in range(3)]
        cases += [cs[:2], [cs[0], cs[1], cs[0]], cs]
    for _ in range(10):
        c = generate_complex(random_facets(rng))
        far = generate_complex([[v + 100 for v in f]
                                for f in random_facets(rng)])
        cases += [[c, far], [far, c, c]]
    for _ in range(15):
        a, b = (generate_complex(random_facets(rng, max_vertices=4,
                                               max_facets=3))
                for _ in range(2))
        pc, pd = ProductComplex([a, b]), ProductComplex([b, a])
        cases += [[pc], [pc, pc], [pc, pd]]
    cases += [[Complex([])] * k for k in (1, 2, 3)]
    assert len(cases) >= 200
    for systems in cases:
        codes = build_basis(systems).codes
        assert [list(g) for g in codes] == walk_codes(systems), systems
        # every code of these cases fits in 64 bits, so each grade is packed
        assert all(type(g) is array and g.typecode == "Q" for g in codes)


def test_a_basis_holds_a_packed_code_per_tuple():
    # three_sphere at k = 3 has 140,816 tuples: packed, a code is 8 bytes
    # and the walk's peak stays under 16 bytes per code, where a list of
    # Python ints holds about 40
    s = catalog.three_sphere()
    basis._face_terms.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        b = build_basis([s] * 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n = sum(b.grade_sizes())
    assert n >= 100_000
    assert peak <= 16 * n, peak / n


@pytest.mark.parametrize("k", [64, 65, MAX_ORDER])
def test_codes_past_64_bits_stay_exact_ints(k):
    # two points at order k: the codes reach 2^k - 1, so they are packed up
    # to k = 64 and kept as a list of exact ints beyond it
    systems = [generate_complex([[1], [2]])] * k
    b = build_basis(systems)
    assert [list(g) for g in b.codes] == walk_codes(systems) == [[0, 2**k - 1]]
    assert (type(b.codes[0]) is array) == (k <= 64)
    assert betti_vector(b) == [2]


def test_basis_memory_grows_with_the_path_not_its_square():
    # the walk holds per-cell supports and per-vertex stars, so the peak of
    # a pair basis on a path grows about linearly with its length
    peaks = []
    for n in (2000, 4000):
        path = path_complex(n)
        basis._face_terms.cache_clear()
        tracemalloc.start()
        build_basis([path, path])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0], peaks


def test_grades_are_indexed_by_total_dimension():
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5)])
    b = build_basis((c, c))
    grades = tuple_grades(b)
    for p, grade in enumerate(grades):
        for t in grade:
            total = sum(len(x) - 1 for x in t)
            assert total == p
    for t, i in tuple_index(b).items():
        assert grades[sum(len(x) - 1 for x in t)][i] == t


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
    assert total == sum(len(g) for g in tuple_grades(b))
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


def test_bits_lists_the_set_bits_as_the_one_bit_loop_does():
    def one_bit_at_a_time(m):
        while m:
            lsb = m & -m
            yield lsb.bit_length() - 1
            m ^= lsb

    rng = random.Random(2123)
    for width in (0, 1, 63, 64, 65, 10_000):
        masks = [(1 << width) - 1, 1 << width, (1 << width) | 1]
        masks += [rng.getrandbits(width) for _ in range(20)]
        masks += [sum(1 << rng.randrange(width) for _ in range(3))
                  for _ in range(20) if width]
        for m in masks:
            assert list(_bits(m)) == list(one_bit_at_a_time(m)), m


def test_the_complex_with_no_cells_has_no_tuples():
    c = Complex([])
    for k in (1, 2, 3):
        b = build_basis([c] * k)
        assert tuple_grades(b) == [] and tuple_index(b) == {}
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
    assert eval_multivariate(poly, [1, 1]) == sum(
        len(g) for g in tuple_grades(b))


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
