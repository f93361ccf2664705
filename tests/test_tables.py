"""Every stored expectation row against the live machinery.

The stored tables were frozen after auditing each disputed cell with the
brute-force oracle in oracles.py, so these tests are the regression net for
the whole catalog. A handful of published cells are known misprints; the
tests at the bottom pin both sides of each correction so a regression in
either direction gets caught.
"""

import pytest

from wucalc import catalog
from wucalc.cohomology import euler_poincare_check
from wucalc.ring import ring_betti, ring_wu
from wucalc.simplicial import Complex

from oracles import two_circles


def _pad(vec, n):
    return list(vec) + [0] * (n - len(vec))


def _row_result(name, k):
    c = catalog.NAMED[name]()
    if isinstance(c, Complex):
        result = euler_poincare_check(c, k)
        return result["wu"], list(result["betti"])
    return ring_wu(c, k), list(ring_betti(c, k))


def _main_params():
    params = []
    for (name, k), expected in sorted(catalog.MAIN_TABLE.items()):
        gated = (name, k) in catalog.GATES["large"]
        marks = [pytest.mark.large] if gated else []
        params.append(pytest.param(name, k, expected,
                                   id=f"{name}-k{k}", marks=marks))
    return params


@pytest.mark.parametrize("name,k,expected", _main_params())
def test_main_table_row(name, k, expected):
    wu_expected, betti_expected = expected
    wu, betti = _row_result(name, k)
    n = max(len(betti), len(betti_expected))
    assert wu == wu_expected
    assert _pad(betti, n) == _pad(betti_expected, n)


@pytest.mark.parametrize(
    "row", catalog.pair_fixtures(), ids=lambda row: row[0])
def test_pair_table_row(row):
    name, g, h, wu_expected, betti_expected, note = row
    result = euler_poincare_check([g, h], 2)
    n = max(len(result["betti"]), len(betti_expected))
    assert result["wu"] == wu_expected
    assert _pad(result["betti"], n) == _pad(list(betti_expected), n)
    assert result["euler_poincare_ok"]


def test_two_intersecting_circles():
    g, h = two_circles()
    result = euler_poincare_check([g, h], 2)
    assert result["wu"] == 2
    assert result["betti"] == [0, 0, 2]


def test_every_correction_is_documented():
    for key in catalog.MAIN_TABLE_NOTES:
        assert key in catalog.MAIN_TABLE
    assert set(catalog.MAIN_TABLE_NOTES) == {
        ("bouquet4", 2), ("tesseract", 1),
        ("projective_plane", 3), ("klein_bottle", 3),
    }


# The published values these four rows replace, plus whether the misprint
# is consistent with its own alternating sum. Keeping them as negative
# fixtures makes the corrections load bearing: if the machinery drifts
# toward a misprint, these fail before the main rows do.
MISPRINTS = {
    ("bouquet4", 2): (45, (0, 0, 35), False),
    ("tesseract", 1): (-16, (14, 30), True),
    ("projective_plane", 3): (1, (0, 0, 0, 0, 0, 0, 1), True),
    ("klein_bottle", 3): (0, (0, 0, 0, 0, 0, 1, 1), True),
}


@pytest.mark.parametrize("key", sorted(MISPRINTS), ids=lambda k: f"{k[0]}-k{k[1]}")
def test_corrected_cells_disagree_with_the_misprint(key):
    name, k = key
    wu, betti = _row_result(name, k)
    stored_wu, stored_betti = catalog.MAIN_TABLE[key]
    misprint_wu, misprint_betti, ep_consistent = MISPRINTS[key]
    assert wu == stored_wu == misprint_wu
    n = max(len(betti), len(stored_betti), len(misprint_betti))
    assert _pad(betti, n) == _pad(stored_betti, n)
    assert _pad(betti, n) != _pad(misprint_betti, n)
    super_ours = sum((-1) ** i * v for i, v in enumerate(betti))
    super_misprint = sum((-1) ** i * v for i, v in enumerate(misprint_betti))
    assert super_ours == wu
    # three of the misprints keep the right alternating sum, which is how
    # they survived proofreading; the bouquet one does not, which is how
    # it was first noticed
    assert (super_misprint == wu) == ep_consistent


def test_gates_only_hide_known_heavy_rows():
    gated = catalog.GATES["large"]
    assert gated <= set(catalog.MAIN_TABLE)
    assert gated == {("four_sphere", 3)}
