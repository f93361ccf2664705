import hashlib
import random

import numpy as np
import pytest

from wucalc import catalog, cohomology, differential, exact
from wucalc.basis import (
    InteractionBasis, build_basis, multivariate_euler_polynomial,
)
from wucalc.catalog import (
    cycle_complex, cylinder, figure_eight, generate_complex, klein_bottle,
    moebius, path_complex, projective_plane, rabbit,
)
from wucalc.cohomology import (
    CohomologyData, betti_vector, cohomology_data, euler_poincare_check,
    harmonic_basis, incident_ranks, laplacian_nullities, normalize_complexes,
    poincare_polynomial,
)
from wucalc.differential import interaction_derivative
from wucalc.exact import SparseIntMatrix
from wucalc.ring import ProductComplex
from wucalc.simplicial import Complex

from oracles import (PRIMES, coboundary_assembler, fraction_kernel,
                     integer_rank, matrix_entries, naive_interaction_data,
                     pivot_columns, random_facets, rank_mod, tuple_grades,
                     uncleared_betti)


def test_order_one_betti_matches_classical_homology():
    assert cohomology_data((cycle_complex(4),)).betti == [1, 1]
    assert cohomology_data((figure_eight(),)).betti == [1, 2]
    assert cohomology_data((rabbit(),)).betti == [1, 0, 0]


def test_path_pair_worked_example():
    p3 = path_complex(3)
    data = cohomology_data((p3, p3))
    assert data.betti == [0, 1, 0]
    assert data.wu == -1
    assert poincare_polynomial((p3, p3)) == [0, 1, 0]
    h = harmonic_basis(data.dirac)
    assert [len(block) for block in h] == [0, 1, 0]
    vec = h[1][0]
    assert sorted(abs(v) for v in vec) == [1] * 8


def test_euler_poincare_holds_on_random_complexes():
    rng = random.Random(31415)
    for _ in range(30):
        c = generate_complex(random_facets(rng))
        for k in (1, 2):
            result = euler_poincare_check(c, k)
            assert result["euler_poincare_ok"]
            assert result["alternating_sum"] == result["wu"]


def test_betti_vectors_match_independent_elimination():
    rng = random.Random(777)
    for trial in range(20):
        facets = random_facets(rng, max_vertices=6, max_facets=5)
        c = generate_complex(facets)
        k = 3 if trial % 4 == 0 else 2
        sizes, betti = naive_interaction_data([list(c.cells)] * k)
        data = cohomology_data(tuple(normalize_complexes(c, k)))
        assert [len(g) for g in tuple_grades(data.basis)] == sizes
        assert data.betti == betti


def test_betti_of_a_mixed_pair_matches_the_oracle():
    rng = random.Random(88)
    for _ in range(8):
        a = generate_complex(random_facets(rng, max_vertices=5))
        b = generate_complex(random_facets(rng, max_vertices=5))
        _, betti = naive_interaction_data([list(a.cells), list(b.cells)])
        assert cohomology_data((a, b)).betti == betti


def test_hodge_routes_agree():
    """Nullities of the Laplacian blocks equal the rank-based Betti vector."""
    rng = random.Random(4004)
    for _ in range(12):
        c = generate_complex(random_facets(rng, max_vertices=6))
        data = cohomology_data(tuple(normalize_complexes(c, 2)))
        assert laplacian_nullities(data.dirac) == data.betti
        assert uncleared_betti(data.derivative) == data.betti
        h = harmonic_basis(data.dirac)
        assert [len(block) for block in h] == data.betti


def test_the_hodge_consumers_stream_their_ranks_from_the_basis(monkeypatch):
    # one rank route: with the derivative and the Laplacian built first, the
    # Betti vector, the Laplacian nullities and the harmonic forms each
    # still rank the basis by the streamed coboundary rows
    product = small_products(random.Random(2425), 1)[0]
    cases = [(cylinder(),) * 2, (product,) * 2]
    coboundary = cohomology.coboundary
    for complexes in cases:
        data = CohomologyData(complexes)
        dl = data.dirac
        want = uncleared_betti(data.derivative)
        for run in (lambda: data.betti, lambda: laplacian_nullities(dl),
                    lambda: [len(h) for h in harmonic_basis(dl)]):
            calls = []
            monkeypatch.setattr(cohomology, "coboundary", lambda b: (
                calls.append(b) or coboundary(b)))
            assert run() == want, complexes
            assert calls == [data.basis], complexes


def count_calls(monkeypatch, name, wrap=lambda out: out):
    """Replace exact.<name> by a counting wrapper; returns the call list."""
    real = getattr(exact, name)
    calls = []

    def spy(m, *rest):
        calls.append(m)
        return wrap(real(m, *rest))

    monkeypatch.setattr(exact, name, spy)
    return calls


@pytest.mark.parametrize("make", [cylinder, moebius])
def test_laplacian_nullities_certify_every_block(make, monkeypatch):
    c = make()
    data = cohomology_data((c, c))
    exact_calls = count_calls(monkeypatch, "nullity")
    assert laplacian_nullities(data.dirac) == data.betti
    assert exact_calls == []


@pytest.mark.parametrize("make", [cylinder, moebius, klein_bottle,
                                  projective_plane])
def test_a_failed_certificate_takes_the_exact_route(make, monkeypatch):
    # the exact route eliminates the stacked derivative M_p, not L_p: at
    # k=2, eliminating the Gram blocks takes 25 s on klein_bottle and
    # minutes on projective_plane
    c = make()
    data = cohomology_data((c, c))
    count_calls(monkeypatch, "rank_mod", wrap=lambda r: r - 1)
    exact_calls = count_calls(monkeypatch, "nullity")
    assert laplacian_nullities(data.dirac) == data.betti
    assert exact_calls == data.dirac.columns


def test_the_exact_nullity_route_matches_the_gram_route(monkeypatch):
    # with every certificate missed, the nullity of M_p equals that of the
    # L_p it replaced, eliminated here, and the streamed Betti vector
    rng = random.Random(2929)
    cases = [(generate_complex(random_facets(rng)),) * k
             for _ in range(40) for k in (1, 2)]
    cases += [(p,) for p in small_products(rng, 8)]
    count_calls(monkeypatch, "rank_mod", wrap=lambda r: r - 1)
    for complexes in cases:
        data = CohomologyData(complexes)
        dl = data.dirac
        got = laplacian_nullities(dl)
        assert got == [exact.nullity(lp) for lp in dl.laplacian_blocks]
        assert got == betti_vector(data.basis), complexes


def test_gram_entries_are_the_laplacian_blocks():
    # the certificate reads L_p = M_p^T M_p from the stacked derivative in
    # numpy; the SparseIntMatrix product is the oracle, and both give
    # rank_mod the same window and the same panels
    rng = random.Random(3131)
    cases = [(generate_complex(random_facets(rng)),) * k
             for _ in range(12) for k in (1, 2)]
    cases += [(p,) for p in small_products(rng, 6)]
    for complexes in cases:
        dl = CohomologyData(complexes).dirac
        for m, lp in zip(dl.columns, dl.laplacian_blocks):
            n, ii, jj, vals = g = exact.gram_entries(m)
            assert n == lp.nrows
            assert list(zip(ii.tolist(), jj.tolist(), vals.tolist())) == \
                list(lp.triples()), complexes
            (side, panels), (want_side, want) = (
                exact.envelope(g), exact.envelope(matrix_entries(lp)))
            assert side == want_side and len(panels) == len(want)
            for got, ref in zip(panels, want):
                assert got[:2] == ref[:2]
                assert all(np.array_equal(x, y)
                           for x, y in zip(got[2:], ref[2:]))


@pytest.mark.parametrize("make", [cylinder, catalog.three_sphere])
def test_laplacian_nullities_build_no_laplacian_block(make):
    c = make()
    data = CohomologyData((c, c))
    assert laplacian_nullities(data.dirac) == data.betti
    assert "laplacian_blocks" not in vars(data.dirac)


def test_an_oversized_block_skips_the_modular_rank(monkeypatch):
    c = cylinder()
    data = cohomology_data((c, c))
    smallest = min(n for n in data.dirac.grade_sizes if n)
    monkeypatch.setattr(exact, "MAX_DENSE_ENTRIES", smallest ** 2 - 1)
    mod_calls = count_calls(monkeypatch, "rank_mod")
    exact_calls = count_calls(monkeypatch, "nullity")
    assert laplacian_nullities(data.dirac) == data.betti
    assert mod_calls == []
    assert exact_calls == data.dirac.columns


def test_three_sphere_pair_nullities_are_certified(monkeypatch):
    # the 1,376-column block included: a certificate that misses sends it
    # to the exact route
    c = catalog.three_sphere()
    data = cohomology_data((c, c))
    exact_calls = count_calls(monkeypatch, "nullity")
    assert laplacian_nullities(data.dirac) == [0, 0, 0, 1, 0, 0, 1]
    assert exact_calls == []


def test_catalog_laplacian_nullities_are_certified(monkeypatch):
    exact_calls = count_calls(monkeypatch, "nullity")
    checked = 0
    for name in sorted(catalog.NAMED):
        c = catalog.NAMED[name]()
        for k in (1, 2):
            if sum(multivariate_euler_polynomial(c, k).values()) > 5000:
                continue
            data = cohomology_data((c,) * k)
            assert laplacian_nullities(data.dirac) == data.betti, (name, k)
            checked += 1
    assert checked > 40
    assert exact_calls == []


def test_harmonic_vectors_are_integer_kernel_elements():
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5)])
    data = cohomology_data((c, c))
    for p, block in enumerate(data.dirac.laplacian_blocks):
        dense = block.to_dense()
        for vec in harmonic_basis(data.dirac)[p]:
            assert all(isinstance(v, int) for v in vec)
            image = [sum(a * b for a, b in zip(row, vec)) for row in dense]
            assert all(v == 0 for v in image)
    # harmonic_basis takes the kernel of the stacked derivative, not of
    # L_p itself: on seeded random complexes it is the Fraction kernel of L_p
    rng = random.Random(77)
    for _ in range(8):
        c = generate_complex(random_facets(rng))
        for k in (1, 2):
            dl = cohomology_data((c,) * k).dirac
            h = harmonic_basis(dl)
            for p, block in enumerate(dl.laplacian_blocks):
                want = fraction_kernel(block.to_dense()) if block.nrows else []
                assert h[p] == want, (c, k, p)


@pytest.mark.parametrize("make", [cylinder, moebius])
def test_harmonic_forms_eliminate_only_grades_with_cohomology(make,
                                                             monkeypatch):
    dl = cohomology_data((make(), make())).dirac
    betti = uncleared_betti(dl.derivative)
    calls = count_calls(monkeypatch, "kernel_basis")
    assert [len(h) for h in harmonic_basis(dl)] == betti
    assert [m.ncols for m in calls] == [
        n for n, b in zip(dl.grade_sizes, betti) if b]


def test_rank_nullity_accounting():
    c = generate_complex([(1, 2, 3), (2, 3, 4)])
    data = cohomology_data((c, c))
    sizes = data.derivative.grade_sizes
    ranks = [integer_rank(m) for m in data.derivative.blocks]
    padded = [0] + ranks + [0]
    for p, n in enumerate(sizes):
        assert data.betti[p] == n - padded[p] - padded[p + 1]
    assert incident_ranks(data.derivative.basis) == [
        padded[p] + padded[p + 1] for p in range(len(sizes))]
    point = cohomology_data((generate_complex([(1,)]),)).derivative
    assert (point.blocks, incident_ranks(point.basis)) == ([], [0])


def rank_cases(seed):
    """Seeded complexes at k = 1, 2, 3 and three mixed pairs."""
    rng = random.Random(seed)
    cases = []
    for _ in range(10):
        c = generate_complex(random_facets(rng))
        cases.extend((c,) * k for k in (1, 2, 3))
    for _ in range(3):
        cases.append((generate_complex(random_facets(rng, max_vertices=5)),
                      generate_complex(random_facets(rng, max_vertices=5))))
    return cases


def cheap_table_rows(limit=5000):
    """The ungated MAIN_TABLE rows on complexes with at most `limit` tuples."""
    for name, k in sorted(catalog.MAIN_TABLE):
        c = catalog.NAMED[name]()
        if ((name, k) not in catalog.GATES["large"] and isinstance(c, Complex)
                and sum(multivariate_euler_polynomial(c, k).values()) <= limit):
            yield (c,) * k


def test_cleared_ranks_match_the_uncleared_reference():
    rows = list(cheap_table_rows())
    assert len(rows) > 60
    for complexes in rank_cases(2011) + rows:
        d = interaction_derivative(build_basis(complexes))
        ranks = [0] + [exact.rank(b) for b in d.blocks] + [0]
        assert incident_ranks(d.basis) == [
            ranks[p] + ranks[p + 1] for p in range(len(d.grade_sizes))]


def test_rows_at_the_pivot_columns_above_do_not_change_a_rank():
    dropped = 0
    for complexes in rank_cases(1121) + [(cylinder(),) * 2]:
        d = interaction_derivative(build_basis(complexes))
        for p in range(len(d.blocks) - 1):
            above = set(pivot_columns(d.blocks[p + 1]))
            assert len(above) == exact.rank(d.blocks[p + 1])
            b = d.blocks[p]
            rest = {i: r for i, r in b.rows.items() if i not in above}
            dropped += len(b.rows) - len(rest)
            assert exact.rank(SparseIntMatrix(b.nrows, b.ncols, rest)) == \
                exact.rank(b)
    assert dropped > 0


def test_rows_at_the_pivot_columns_below_do_not_change_a_coboundary_rank():
    # the clearing lemma in the cohomology direction: d_p^T d_(p+1)^T = 0
    dropped = 0
    for complexes in rank_cases(1122) + [(cylinder(),) * 2]:
        b = build_basis(complexes)
        block = coboundary_assembler(b)
        for p in range(len(b.codes) - 2):
            below = set(pivot_columns(block(p)))
            assert len(below) == exact.rank(block(p))
            full, rest = block(p + 1), block(p + 1, below)
            dropped += len(full.rows) - len(rest.rows)
            assert exact.rank(rest) == exact.rank(full)
    assert dropped > 0


def small_products(rng, n):
    return [ProductComplex([
        generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                       max_size=3))
        for _ in range(2)]) for _ in range(n)]


def test_streamed_betti_matches_the_stored_route_and_the_modular_oracle():
    rng = random.Random(2020)
    systems = [generate_complex(random_facets(rng)) for _ in range(4)]
    systems += small_products(rng, 3)
    for s in systems:
        for k in (1, 2, 3):
            b = build_basis((s,) * k)
            d = interaction_derivative(b)
            ranks = [0]
            for m in d.blocks:
                entries = {(i, j): v for i, j, v in m.triples()}
                rs = {rank_mod(entries, q) for q in PRIMES}
                assert len(rs) == 1
                ranks += rs
            ranks.append(0)
            want = [n - ranks[p] - ranks[p + 1]
                    for p, n in enumerate(b.grade_sizes())]
            assert betti_vector(b) == uncleared_betti(d) == want, (s, k)


def test_the_streamed_betti_never_builds_a_derivative(monkeypatch):
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5, 6)])
    cases = [(c,) * k for k in (1, 2, 3)]
    cases += [(pc,) * 2 for pc in small_products(random.Random(2021), 2)]
    want = [uncleared_betti(interaction_derivative(build_basis(complexes)))
            for complexes in cases]
    calls = []
    for module in (cohomology, differential):
        monkeypatch.setattr(module, "interaction_derivative", calls.append)
    for complexes, betti in zip(cases, want):
        data = CohomologyData(complexes)
        assert data.betti == betti
        assert incident_ranks(data.basis) == incident_ranks(
            build_basis(complexes))
    assert calls == []


def test_streamed_betti_matches_the_built_derivative():
    rng = random.Random(1201)
    cases = rank_cases(1201) + [(cylinder(),) * 2]
    for _ in range(4):
        cases += [(ProductComplex([
            generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                           max_size=3))
            for _ in range(2)]),) * k for k in (1, 2, 3)]
    for complexes in cases:
        data = CohomologyData(complexes)
        assert data.betti == uncleared_betti(data.derivative), complexes


def test_betti_never_builds_the_whole_derivative():
    # the Betti route assembles, ranks and drops one block at a time
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5, 6)])
    data = CohomologyData((c, c, c))
    assert data.betti == uncleared_betti(interaction_derivative(data.basis))
    assert "derivative" not in vars(data)


def test_an_input_over_the_tuple_budget_is_refused_before_the_basis(
        monkeypatch):
    # euler_poincare_check (behind wucalc betti and fixtures) reads the Wu
    # characteristic first: its profile walk counts tuples and stores none,
    # so the refusal comes before build_basis stores a code
    from wucalc import basis
    monkeypatch.setattr(basis, "MAX_TUPLES", 100)
    calls = []
    monkeypatch.setattr(cohomology, "build_basis",
                        lambda cs: calls.append(cs) or build_basis(cs))
    cohomology_data.cache_clear()
    with pytest.raises(ValueError, match="tuple budget"):
        euler_poincare_check(path_complex(40), 2)
    assert calls == []
    # the spy is live: an input under the budget reaches it
    assert euler_poincare_check(path_complex(3), 2)["euler_poincare_ok"]
    assert len(calls) == 1
    cohomology_data.cache_clear()


def test_a_basis_that_differs_from_the_face_count_is_refused(monkeypatch):
    # a walk that lost one code disagrees with the exact face count of its
    # grade, and CohomologyData.basis raises rather than rank it
    def lossy(cs):
        b = build_basis(cs)
        b.codes[1].pop()
        return b

    monkeypatch.setattr(cohomology, "build_basis", lossy)
    c = path_complex(3)
    data = CohomologyData((c, c))
    with pytest.raises(ArithmeticError, match="differ from the face count"):
        data.basis


def test_a_pass_builds_each_face_table_once(monkeypatch):
    # one face table per distinct complex, per streamed Betti pass and per
    # built derivative, not one per block
    builds = []
    face_table = differential._face_table
    monkeypatch.setattr(differential, "_face_table",
                        lambda s: builds.append(s) or face_table(s))
    c, e = generate_complex([(1, 2, 3), (3, 4)]), path_complex(3)
    for systems in ((c, c, c), (c, e, c)):
        b = build_basis(systems)
        for run in (incident_ranks, betti_vector, interaction_derivative):
            builds.clear()
            run(b)
            assert sorted(map(id, builds)) == sorted(map(id, set(systems)))


def test_the_betti_route_never_sorts_the_layout(monkeypatch):
    # ranks do not depend on the order of the basis, so the streamed Betti
    # ranks the walk order and never computes the layout's sort key
    rng = random.Random(2122)
    cases = [(generate_complex(random_facets(rng)),) * k for k in (1, 2, 3)]
    cases += [(pc,) * k for pc in small_products(rng, 2) for k in (1, 2)]
    want = [uncleared_betti(interaction_derivative(build_basis(complexes)))
            for complexes in cases]
    calls = []
    layout = InteractionBasis.layout.func
    monkeypatch.setattr(InteractionBasis, "layout", property(
        lambda b: calls.append(b) or layout(b)))
    for cls in (Complex, ProductComplex):
        monkeypatch.setattr(cls, "flat_key", staticmethod(
            lambda cell, key=cls.flat_key: calls.append(cell) or key(cell)))
    for complexes, betti in zip(cases, want):
        assert CohomologyData(complexes).betti == betti
        assert betti_vector(build_basis(complexes)) == betti
    assert calls == []
    # the spies are live: the layout routes reach them
    interaction_derivative(build_basis(cases[1]))
    assert calls


def ungated_table_rows():
    for name, k in sorted(catalog.MAIN_TABLE):
        if (name, k) not in catalog.GATES["large"]:
            yield (catalog.NAMED[name](),) * k


def test_the_streamed_ranks_reduce_as_the_built_blocks(monkeypatch):
    # lazy equals eager: the streamed Betti route, which builds a row of
    # d_p^T only when a reduction reads it, finds the pivot columns of the
    # fully built walk-order blocks, with the same eliminations
    rng = random.Random(2323)
    cases = rank_cases(2323) + [
        (pc,) * k for pc in small_products(rng, 3) for k in (1, 2, 3)]
    table = list(ungated_table_rows())
    eliminated, pivots, built, ranked = [], [], [], []
    eliminate, pivot_rows = exact._eliminate, exact.pivot_rows
    monkeypatch.setattr(exact, "_eliminate", lambda *args: (
        eliminated.append(args[2]) or eliminate(*args)))
    monkeypatch.setattr(exact, "pivot_rows", lambda *args: (
        pivots.append(pivot_rows(*args)) or pivots[-1]))
    coboundary = cohomology.coboundary

    def spy(b):
        leads, row = coboundary(b)

        def counted_leads(codes, skip):
            for item in leads(codes, skip):
                ranked.append(item[1])
                yield item
        return counted_leads, lambda code: built.append(code) or row(code)

    monkeypatch.setattr(cohomology, "coboundary", spy)
    for complexes in cases + table:
        if complexes is table[0]:
            built.clear()
            ranked.clear()
        b = build_basis(complexes)
        pivots.clear()
        eliminated.clear()
        incident_ranks(b)
        lazy, lazy_eliminated = [set(p) for p in pivots], len(eliminated)
        eliminated.clear()
        block = coboundary_assembler(b, b.codes)
        cleared, eager = set(), []
        for p in range(len(b.codes) - 1):
            cleared = set(pivot_columns(block(p, cleared)))
            eager.append({b.codes[p + 1][j] for j in cleared})
        assert lazy == eager, complexes
        assert lazy_eliminated == len(eliminated), complexes
    # on the ungated table almost every ranked row is an apparent pivot,
    # kept by its code and never built
    assert len(ranked) > 100000
    assert len(built) < 0.15 * len(ranked)


def test_leads_yield_the_least_code_of_each_built_row():
    # the oracle is the definition: (min(row(code)), code) for each code
    # outside skip whose row is not empty, at every grade and in order
    rng = random.Random(3636)
    cases = rank_cases(3636) + [
        (pc,) * k for pc in small_products(rng, 3) for k in (1, 2, 3)]
    cases += list(ungated_table_rows())
    # a 0-dimensional complex past 64 bits keeps its codes in a list
    cases.append((generate_complex([(1,), (2,)]),) * 65)
    yielded = 0
    for complexes in cases:
        b = build_basis(complexes)
        leads, row = differential.coboundary(b)
        for codes in b.codes:
            rows = {code: row(code) for code in codes}
            for skip in (set(), set(rng.sample(list(codes), len(codes) // 3))):
                want = [(min(r), code) for code, r in rows.items()
                        if code not in skip and r]
                got = list(leads(codes, skip))
                assert got == want, complexes
                yielded += len(got)
    assert isinstance(b.codes[0], list) and b.grade_sizes() == [2]
    assert yielded > 100000


HARMONIC_SHA1 = {
    ("cylinder", 1): "3b1940fe1fb08cbf89031893741a2c875c114852",
    ("cylinder", 2): "f25153c3ed3b0783e0e9e5bf91de0073912db30b",
    ("moebius", 1): "9679f9766815022455a759584d60efbf4f8f29ab",
    ("moebius", 2): "25aea1255a5ec274b89350912fa2313e20afec88",
    ("klein_bottle", 1): "57ec963c5b5a09c12debb54c641381b7aeea7489",
    ("octahedron", 2): "eef0eaea274003868855edcc077156bb31209d42",
    ("house", 2): "ac8bdcf799af90ae7c1f7419eed261debc2a2ca8",
    ("rabbit", 2): "71825da3f88a8f5fd1ce31c2852aefe5c7378f70",
}


@pytest.mark.parametrize("name,k", sorted(HARMONIC_SHA1))
def test_harmonic_forms_are_pinned(name, k):
    # the forms are read in the layout order, which the Betti route skips
    forms = cohomology_data((getattr(catalog, name)(),) * k).harmonic
    digest = hashlib.sha1(repr(forms).encode()).hexdigest()
    assert digest == HARMONIC_SHA1[name, k]


def test_cohomology_data_is_cached_per_tuple():
    p3 = path_complex(3)
    a = cohomology_data((p3, p3))
    b = cohomology_data((path_complex(3), path_complex(3)))
    assert a is b


def test_betti_leaves_the_basis_tuples_undecoded(monkeypatch):
    # the derivative and the ranks read only the integer codes; the tuples
    # of cells are decoded for the callers that name cells
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5, 6)])
    calls = []
    parts, layout = InteractionBasis._parts, InteractionBasis.layout.func
    monkeypatch.setattr(InteractionBasis, "_parts", lambda b, *args: (
        calls.append(args) or parts(b, *args)))
    monkeypatch.setattr(InteractionBasis, "layout", property(
        lambda b: calls.append(b) or layout(b)))
    cohomology_data.cache_clear()
    data = cohomology_data((c, c, c))
    assert data.betti
    assert calls == []
    assert data.basis.grade_sizes() == [
        len(g) for g in tuple_grades(data.basis)]
    # the spies are live: decoding the tuples reaches them
    assert calls


def test_normalize_complexes_shapes_and_errors():
    p3 = path_complex(3)
    assert normalize_complexes(p3, 3) == (p3, p3, p3)
    assert normalize_complexes([p3, p3]) == (p3, p3)
    with pytest.raises(ValueError):
        normalize_complexes([p3, p3], 3)
