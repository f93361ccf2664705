import random
from fractions import Fraction

from wucalc.catalog import (
    cycle_complex, cylinder, figure_eight, generate_complex, house, moebius,
    octahedron, rabbit,
)
from wucalc.cohomology import cohomology_data, euler_poincare_check
from wucalc.lefschetz import (
    automorphism_group, complex_automorphisms, fixed_tuples,
    lefschetz_fixed_point_check, lefschetz_number, permutation_sign,
)

from oracles import (
    cycle_sign, fixed_point_indices, heat_trace, lefschetz_trace,
    random_facets, tuple_grades,
)


def test_identity_map_gives_the_wu_characteristic():
    for c in (rabbit(), cycle_complex(5), octahedron()):
        ident = {v: v for v in c.vertex_set}
        for k in (1, 2):
            expected = euler_poincare_check(c, k)["wu"]
            assert lefschetz_number(ident, c, k) == expected


def test_cylinder_automorphism_numbers():
    cyl = cylinder()
    autos = complex_automorphisms(cyl)
    assert len(autos) == 16
    nums = sorted(lefschetz_number(t, cyl, 1) for t in autos)
    assert nums == [0] * 8 + [2] * 8
    assert Fraction(sum(nums), len(nums)) == 1


def test_moebius_automorphism_numbers():
    moe = moebius()
    autos = complex_automorphisms(moe)
    assert len(autos) == 14
    nums = sorted(lefschetz_number(t, moe, 1) for t in autos)
    assert nums == sorted([0, 2, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0, 2])


def test_orientation_reversal_detected_on_the_circle():
    # On a circle every reflection reverses H^1, so its number is 2, while
    # rotations act trivially on cohomology and give 0.
    c = cycle_complex(6)
    autos = complex_automorphisms(c)
    assert len(autos) == 12
    nums = sorted(lefschetz_number(t, c, 1) for t in autos)
    assert nums == [0] * 6 + [2] * 6


def test_a_lefschetz_sweep_builds_each_cohomology_once():
    # the order of the Hodge pass: the k=2 data is looked up again after a
    # whole sweep at k=1, so the cache must keep two keys alive
    c = cycle_complex(5)
    autos = complex_automorphisms(c)
    cohomology_data.cache_clear()
    euler_poincare_check(c, 2)
    for k in (1, 2):
        for t in autos:
            assert lefschetz_fixed_point_check(t, c, k)["fixed_point_ok"]
    assert cohomology_data.cache_info().misses == 2


def test_fixed_point_identity_on_catalog_fixtures():
    for c in (rabbit(), house(), cycle_complex(4), octahedron()):
        for t in complex_automorphisms(c):
            for k in (1, 2):
                res = lefschetz_fixed_point_check(t, c, k)
                assert res["fixed_point_ok"], (c, t, k)
                assert res["lefschetz"] == res["index_sum"]


def test_both_lefschetz_routes_agree_on_random_complexes():
    rng = random.Random(2718)
    done = 0
    while done < 15:
        c = generate_complex(random_facets(rng, max_vertices=6))
        autos = complex_automorphisms(c)
        t = autos[rng.randrange(len(autos))]
        for k in (1, 2):
            assert lefschetz_number(t, c, k) == \
                lefschetz_fixed_point_check(t, c, k)["index_sum"]
        done += 1


def test_fixed_tuples_match_the_definition():
    rng = random.Random(6007)
    complexes = [cylinder(), moebius()]
    complexes += [generate_complex(random_facets(rng)) for _ in range(30)]
    for c in complexes:
        autos = complex_automorphisms(c)
        for t in autos:
            for s in c.simplices:
                assert permutation_sign(t, s) == cycle_sign(t, s)
        for k in (1, 2, 3):
            basis = cohomology_data(tuple([c] * k)).basis
            for t in autos:
                expected = fixed_point_indices(t, tuple_grades(basis))
                assert fixed_tuples(t, basis) == expected, (c, t, k)
                assert sum(index for _, index in fixed_tuples(t, basis)) == \
                    sum(index for _, index in expected)


def test_the_trace_on_codes_matches_the_definition():
    # lefschetz_number maps one code per harmonic form; the oracle maps every
    # tuple and solves for the trace on the span of the harmonic forms. The
    # harmonic forms of the cylinder, the Moebius strip and the octahedron
    # take 1 to 2 s each at k=3, so those run at k=1 and 2 (the cylinder's
    # k=3 numbers are pinned in test_cli), and k=3 runs on the rabbit (six
    # forms in one grade), the figure eight and random complexes.
    rng = random.Random(3001)
    cases = [(c, (1, 2)) for c in (cylinder(), moebius(), octahedron())]
    cases += [(c, (1, 2, 3)) for c in (rabbit(), figure_eight())]
    cases += [(generate_complex(random_facets(rng)), (1, 2, 3))
              for _ in range(6)]
    for c, ks in cases:
        autos = complex_automorphisms(c)
        for k in ks:
            for t in autos:
                assert lefschetz_number(t, c, k) == \
                    lefschetz_trace(t, c, k), (c, t, k)


def test_automorphism_group_of_the_octahedron_graph():
    g = octahedron().skeleton_graph()
    autos = automorphism_group(g)
    assert len(autos) == 48
    ids = [t for t in autos if all(t[v] == v for v in t)]
    assert len(ids) == 1
    for t in autos:
        assert sorted(t.values()) == sorted(g.vertices)
        for u, v in g.edges:
            assert tuple(sorted((t[u], t[v]))) in g.edges


def test_heat_trace_interpolates_between_index_sum_and_lefschetz():
    oc = octahedron()
    autos = complex_automorphisms(oc)
    t = autos[7]
    for k in (1, 2):
        lef = lefschetz_number(t, oc, k)
        basis = cohomology_data(tuple([oc] * k)).basis
        index_sum = sum(index for _, index in fixed_tuples(t, basis))
        assert abs(heat_trace(t, oc, k, 0.0) - index_sum) < 1e-9
        assert abs(heat_trace(t, oc, k, 40.0) - lef) < 1e-8
        # the supertrace stays put for all intermediate times as well
        for time in (0.1, 1.0, 5.0):
            assert abs(heat_trace(t, oc, k, time) - lef) < 1e-8
