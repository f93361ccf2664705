import math
import random

import numpy as np
import pytest

from wucalc import exact
from wucalc.catalog import (
    complete_complex, cylinder, generate_complex, house, octahedron,
    path_complex,
)
from wucalc.cohomology import (
    CohomologyData, cohomology_data, normalize_complexes,
)
from wucalc.dynamics import (
    block_spectra, lax_deform, mckean_singer_supertrace, supersymmetry_gap,
    wave_evolve,
)

from oracles import (
    dirac_spectrum, random_facets, supertrace_power, two_product_lax_deform,
)

SMALL_FIXTURES = [
    (path_complex(3), 2),
    (complete_complex(3), 2),
    (house(), 1),
    (octahedron(), 1),
]


def _data(c, k):
    return cohomology_data(tuple(normalize_complexes(c, k)))


def test_supertrace_is_constant_and_equals_wu():
    for c, k in SMALL_FIXTURES:
        data = _data(c, k)
        spectra = block_spectra(data.dirac, exact_nullities=data.betti)
        for t in (0.0, 0.1, 1.0, 10.0):
            value = mckean_singer_supertrace(spectra, t)
            assert abs(value - data.wu) < 1e-8, (t, value, data.wu)


def test_even_and_odd_nonzero_spectra_agree():
    for c, k in SMALL_FIXTURES:
        data = _data(c, k)
        spectra = block_spectra(data.dirac)
        gap = supersymmetry_gap(spectra)
        assert gap["supersymmetric"]
        assert gap["max_gap"] < 1e-8
        assert gap["even"] == gap["odd"]


def test_exact_supertraces_of_laplacian_powers_vanish():
    for c, k in SMALL_FIXTURES:
        data = _data(c, k)
        for n in (1, 2, 3):
            assert supertrace_power(data.dirac, n) == 0


def test_zero_mode_counts_match_the_betti_vector():
    for c, k in SMALL_FIXTURES:
        data = _data(c, k)
        spectra = block_spectra(data.dirac, exact_nullities=data.betti)
        zeros = [sum(1 for x in s if x == 0.0) for s in spectra]
        assert zeros == list(data.betti)


def test_a_zero_mode_mismatch_warns():
    # one nullity off by one: the spectra are still returned, with a
    # RuntimeWarning naming the grade, the zero-mode count and the nullity
    data = _data(house(), 1)
    nullities = list(data.betti)
    nullities[1] += 1
    with pytest.warns(RuntimeWarning, match=(
            f"grade 1: {data.betti[1]} numerical zero modes but nullity "
            f"{nullities[1]}$")):
        spectra = block_spectra(data.dirac, exact_nullities=nullities)
    assert [sum(1 for x in s if x == 0.0) for s in spectra] == \
        list(data.betti)


def test_block_spectra_read_the_gram_entries_not_the_laplacian_blocks():
    # the dense block is scattered from exact.gram_entries(M_p), as the
    # GF(q) certificate reads it, so no dict L_p is built; its eigenvalues
    # are those of the exact SparseIntMatrix blocks, float for float
    rng = random.Random(3333)
    cases = [(generate_complex(random_facets(rng)), k)
             for _ in range(10) for k in (1, 2)]
    for c, k in cases + [(cylinder(), 2)]:
        # a fresh DiracLaplacian: a cached one may hold blocks read before
        dl = CohomologyData(tuple(normalize_complexes(c, k))).dirac
        spectra = block_spectra(dl)
        assert "laplacian_blocks" not in vars(dl)
        for got, lp in zip(spectra, dl.laplacian_blocks):
            want = np.linalg.eigvalsh(exact.dense_array(lp))
            want[np.abs(want) <= 1e-8] = 0.0
            assert np.array_equal(got, want), (c, k)


def test_dirac_spectrum_is_symmetric_around_zero():
    data = _data(path_complex(3), 2)
    spec = np.array(dirac_spectrum(data.dirac))
    assert np.allclose(np.sort(spec), np.sort(-spec), atol=1e-9)


def test_lax_flow_stays_isospectral_in_both_modes():
    for c, k in ((path_complex(3), 2), (octahedron(), 1)):
        data = _data(c, k)
        assert data.dirac.size <= 60
        for mode in ("real", "complex"):
            d, report = lax_deform(data.dirac, mode=mode,
                                   t_max=1.0, dt=0.01)
            assert report["isospectral"]
            assert report["nilpotent"]
            assert report["spectral_drift"] < 1e-6
            assert report["d_squared"] < 1e-8
            n = data.dirac.size
            assert d.shape == (n, n)
            assert np.array_equal(d, d.conj().T)


def test_the_one_product_flow_matches_the_two_product_oracle():
    # B(D) read off the fixed sign pattern, one product per RK4 stage and
    # no re-symmetrization, against the route it replaced: two products per
    # stage and a re-symmetrization per step
    rng = random.Random(28)
    cases = [(generate_complex(random_facets(
        rng, max_vertices=7 if k == 1 else 5, max_facets=4)), k, 0.5, 0.01)
        for k in (1, 2) * 16]
    cases.append((cylinder(), 2, 0.1, 0.05))
    for c, k, t_max, dt in cases:
        dl = _data(c, k).dirac
        for mode in ("real", "complex"):
            d, report = lax_deform(dl, mode=mode, t_max=t_max, dt=dt)
            want, expected = two_product_lax_deform(dl, mode=mode,
                                                    t_max=t_max, dt=dt)
            assert np.abs(d - want).max(initial=0.0) <= 1e-12
            for key in ("steps", "isospectral", "nilpotent"):
                assert report[key] == expected[key], (k, mode, key)
            assert np.array_equal(d, d.conj().T)


def test_wave_evolution_of_eigenmodes():
    # On an eigenvector with eigenvalue lam the solution is a pure cosine,
    # and harmonic vectors do not move at all.
    data = _data(path_complex(3), 2)
    L = np.zeros((data.dirac.size, data.dirac.size))
    d = np.array(data.dirac.dirac.to_dense(), dtype=float)
    L = d @ d
    lams, vecs = np.linalg.eigh(L)
    n = data.dirac.size
    zero = np.zeros(n)
    for idx in (0, n // 2, n - 1):
        lam, v = lams[idx], vecs[:, idx]
        for t in (0.3, 1.7):
            got = wave_evolve(data.dirac, v, zero, t)
            expected = math.cos(math.sqrt(max(lam, 0.0)) * t) * v
            assert np.allclose(got, expected, atol=1e-8)


def test_wave_zero_modes_drift_linearly():
    data = _data(path_complex(3), 2)
    n = data.dirac.size
    harmonic = np.zeros(n)
    off = data.dirac.offsets[1]
    for j, v in enumerate(data.harmonic[1][0]):
        harmonic[off + j] = v
    got = wave_evolve(data.dirac, np.zeros(n), harmonic, 2.5)
    assert np.allclose(got, 2.5 * harmonic, atol=1e-9)
    still = wave_evolve(data.dirac, harmonic, np.zeros(n), 3.0)
    assert np.allclose(still, harmonic, atol=1e-9)


def test_an_oversized_block_is_refused_before_any_eigensolve(monkeypatch):
    dl = _data(cylinder(), 2).dirac
    monkeypatch.setattr(exact, "MAX_DENSE_ENTRIES",
                        max(dl.grade_sizes) ** 2 - 1)
    solved = []
    monkeypatch.setattr(np.linalg, "eigvalsh", solved.append)
    with pytest.raises(ValueError, match="dense budget"):
        block_spectra(dl)
    assert solved == []
