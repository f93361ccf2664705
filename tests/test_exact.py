import functools
import random
import tracemalloc

import numpy as np
import pytest

from wucalc import catalog, exact
from wucalc.basis import build_basis
from wucalc.catalog import (
    cylinder, generate_complex, moebius, octahedron,
)
from wucalc.cohomology import cohomology_data
from wucalc.connection import connection_matrix
from wucalc.differential import interaction_derivative
from wucalc.exact import SparseIntMatrix, det_bareiss, kernel_basis, rank

from oracles import (
    PRIMES, charpoly, coboundary_assembler, dense_det_bareiss, dict_rcm,
    fraction_det, fraction_kernel, fraction_rank, fraction_rref,
    matrix_entries, pivot_columns, pivot_count_mod, rank_mod, random_facets,
    sparse_from_dense,
)


def random_int_matrix(rng, nrows, ncols, lo=-4, hi=4, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def to_sparse(rows):
    return sparse_from_dense(rows)


def test_integer_rank_matches_fraction_elimination():
    rng = random.Random(42)
    for _ in range(60):
        rows = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(to_sparse(rows)) == fraction_rank(rows)


def test_integer_rank_of_rank_one_product():
    # outer product of two vectors always has rank one
    rng = random.Random(9)
    for _ in range(20):
        u = [rng.randint(-3, 3) for _ in range(6)]
        v = [rng.randint(-3, 3) for _ in range(6)]
        if not any(u) or not any(v):
            continue
        rows = [[a * b for b in v] for a in u]
        assert rank(to_sparse(rows)) == 1


def test_det_bareiss_matches_fraction_gauss():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 7)
        rows = random_int_matrix(rng, n, n)
        assert det_bareiss(rows) == fraction_det(rows)


def test_det_bareiss_stays_exact_on_big_entries():
    rng = random.Random(44)
    rows = random_int_matrix(rng, 6, 6, lo=-10**6, hi=10**6, density=1.0)
    assert det_bareiss(rows) == fraction_det(rows)


def test_det_of_singular_matrix_is_zero():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert det_bareiss(rows) == 0


def _det_cases(rng):
    """Seeded square matrices of the shapes whose rows det_bareiss leaves
    unscaled for several pivot steps: banded (tridiagonal at width 1, n up
    to 60), block-diagonal, arrow-shaped and sparse random at densities 0.1
    to 0.3. Every third is made singular by a late row that repeats or
    combines earlier ones, and a quarter draw entries up to 10**12.
    Then the Laplacian blocks of moebius and cylinder at k = 1 and 2, and
    the connection matrices of random complexes."""
    def entry():
        return rng.choice((-1, 1)) * rng.randint(1, scale)

    for case in range(460):
        scale = 10 ** 12 if case % 16 >= 12 else 9
        shape = case % 4
        if shape == 0:
            n = rng.randint(1, 60 if scale == 9 else 30)
            width = rng.choice((1, 1, 2, 3, 4))
            rows = [[entry() if abs(i - j) <= width else 0
                     for j in range(n)] for i in range(n)]
        elif shape == 1:
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
            n, rows, start = sum(sizes), [], 0
            for size in sizes:
                for _ in range(size):
                    rows.append([entry() if start <= j < start + size
                                 and rng.random() < 0.8 else 0
                                 for j in range(n)])
                start += size
        elif shape == 2:
            n = rng.randint(2, 25)
            hub = rng.choice((0, n - 1))
            rows = [[entry() if i == j or hub in (i, j) else 0
                     for j in range(n)] for i in range(n)]
        else:
            n = rng.randint(2, 30)
            density = rng.uniform(0.1, 0.3)
            rows = [[entry() if rng.random() < density else 0
                     for j in range(n)] for i in range(n)]
        if case % 3 == 2 and n >= 3:
            late = rng.randint(n - 1 - n // 4, n - 1)
            i, j = rng.sample(range(late), 2)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[late] = [x * u + y * v for u, v in zip(rows[i], rows[j])]
        yield rows
    for c in (moebius(), cylinder()):
        for k in (1, 2):
            for block in cohomology_data((c,) * k).dirac.laplacian_blocks:
                yield block.to_dense()
    for _ in range(40):
        yield connection_matrix(generate_complex(random_facets(rng)))


def test_lazy_det_bareiss_matches_the_dense_elimination():
    count = 0
    for rows in _det_cases(random.Random(32)):
        det = det_bareiss(rows)
        assert det == dense_det_bareiss(rows)
        if len(rows) <= 10:
            assert det == fraction_det(rows)
        count += 1
    assert count >= 500


def test_det_bareiss_edge_cases_of_the_lazy_rows():
    # upper triangular with non-unit pivots: no step touches a row below
    # the pivot, so row k becomes the pivot after skipping k steps and the
    # last row is read only by the final a * prev // base
    upper = [[2, 1, -3, 4, 1],
             [0, 3, 5, -1, 2],
             [0, 0, 5, 2, -7],
             [0, 0, 0, 7, 3],
             [0, 0, 0, 0, 11]]
    # row 3 skips steps 0 and 1 (its first entries are zero, and the first
    # pivot is 3) and then wins the search at step 2, with the true entry 6
    # against -18 in a row that both steps touched
    skipped = [[3, 1, 2, 5],
               [6, 5, 1, 1],
               [9, 4, 7, 2],
               [0, 0, 2, 9]]
    # column 1 is twice column 0, so it is zero below the first pivot,
    # which the search finds in rows 2 and 3, both left unscaled
    late_zero = [[2, 4, 1, 0],
                 [3, 6, 0, 1],
                 [0, 0, 0, 5],
                 [0, 0, 7, 0]]
    for m, det in ((upper, 2310), (skipped, 342), (late_zero, 0)):
        assert fraction_det(m) == det
        assert det_bareiss(m) == det
    assert det_bareiss([]) == 1
    assert det_bareiss([[-7]]) == -7
    assert det_bareiss([[0]]) == 0
    with pytest.raises(ValueError, match="square"):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_kernel_basis_vectors_are_annihilated():
    rng = random.Random(45)
    for _ in range(40):
        rows = random_int_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = to_sparse(rows)
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rank(m)
        for vec in basis:
            image = [sum(a * b for a, b in zip(row, vec)) for row in rows]
            assert all(x == 0 for x in image), f"{vec} not in kernel"


def elimination_cases(rng):
    """Seeded dense integer matrices for the elimination core: non-unit
    entries, zero rows and columns, no columns at all, full rank and
    dependent rows."""
    cases = [[[]], [[], []], [[0, 0, 0]], [[2, 4], [3, 6]]]
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        hi = rng.choice([1, 4, 40])
        rows = random_int_matrix(rng, nrows, ncols, -hi, hi,
                                 density=rng.choice([0.3, 0.7, 1.0]))
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in rows:
                row[j] = 0
        if nrows > 1 and rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        cases.append(rows)
    return cases


def test_elimination_core_matches_the_oracles():
    full_rank = deficient = 0
    for rows in elimination_cases(random.Random(48)):
        m = to_sparse(rows)
        r = rank(m)
        entries = {(i, j): v for i, row in enumerate(rows)
                   for j, v in enumerate(row) if v}
        assert all(r == rank_mod(entries, q) for q in PRIMES), rows
        assert kernel_basis(m) == fraction_kernel(rows), rows
        full_rank += r == min(m.nrows, m.ncols)
        deficient += r < min(m.nrows, m.ncols)
    assert full_rank > 20 and deficient > 20


def test_kernel_of_a_matrix_without_rows_is_the_identity():
    assert kernel_basis(SparseIntMatrix(0, 3)) == [[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 1]]
    assert rank(SparseIntMatrix(0, 3)) == 0


def pivot_cases(rng):
    """Seeded integer matrices for pivot_columns: entries in -3..3, so that
    non-unit leading entries force pivot swaps, with zero rows (left out of
    the sparse rows) and duplicate rows, in a shuffled row order."""
    cases = []
    for _ in range(200):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows = random_int_matrix(rng, nrows, ncols, -3, 3,
                                 density=rng.choice([0.3, 0.6, 1.0]))
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(nrows)] = [0] * ncols
        for _ in range(rng.randint(0, 2)):
            rows.append(list(rng.choice(rows)))
        m = to_sparse(rows)
        order = list(m.rows)
        rng.shuffle(order)
        cases.append(SparseIntMatrix(m.nrows, m.ncols,
                                     {i: m.rows[i] for i in order}))
    return cases


def derivative_cases(rng):
    """Seeded coboundary blocks d_p^T at k = 1, 2, 3, each without a random
    set of its rows."""
    for _ in range(8):
        c = generate_complex(random_facets(rng))
        for k in (1, 2, 3):
            b = build_basis((c,) * k)
            block = coboundary_assembler(b)
            for p, n in enumerate(b.grade_sizes()[:-1]):
                skip = {i for i in range(n) if rng.random() < 0.3}
                yield block(p, skip)


def test_pivot_columns_are_the_echelon_pivots():
    cases = pivot_cases(random.Random(1313))
    cases += derivative_cases(random.Random(1314))
    for m in cases:
        pivots = pivot_columns(m)
        assert pivots == fraction_rref(m.to_dense())[1], m.rows
        entries = {(i, j): v for i, j, v in m.triples()}
        assert all(len(pivots) == rank_mod(entries, q) for q in PRIMES)


def test_pivot_columns_never_changes_its_input():
    c = cylinder()
    d = interaction_derivative(build_basis((c, c)))
    cases = pivot_cases(random.Random(1315)) + d.blocks
    for m in cases:
        before = list(m.triples())
        pivot_columns(m)
        assert list(m.triples()) == before
        # kernel_basis reads the pivot rows, some of them rows of m
        kernel_basis(m)
        assert list(m.triples()) == before


def rank_mod_cases(rng):
    """Seeded integer matrices for the GF(q) rank: empty shapes, sizes around
    the panel width, negative entries and entries beyond the modulus, and
    low-rank products."""
    q, w = exact._MODULUS, exact._PANEL
    cases = [[], [[]], [[], []], [[0] * 5], [[0], [0], [0]]]
    for n in (w - 1, w, w + 1, 2 * w + 1):
        for hi in (3, 5 * q):
            for density in (0.1, 0.5):
                cases.append(random_int_matrix(rng, n, n, -hi, hi, density))
        cases.append(random_int_matrix(rng, n, rng.randint(1, 3 * w), -2, 2))
    for _ in range(12):
        nrows, ncols = rng.randint(1, 3 * w), rng.randint(1, 3 * w)
        r = rng.randint(0, min(nrows, ncols))
        left = random_int_matrix(rng, nrows, r, -3, 3)
        right = random_int_matrix(rng, r, ncols, -3, 3)
        cases.append([[sum(a * b for a, b in zip(row, col))
                       for col in zip(*right)] if r else [0] * ncols
                      for row in left])
    return cases


def gram(rows):
    """A^T A for the integer matrix A with these rows: symmetric, positive
    semidefinite, and of the rational rank of A."""
    return [[sum(a * b for a, b in zip(ci, cj)) for cj in zip(*rows)]
            for ci in zip(*rows)]


def indefinite(rows):
    """A + A^T for the square cases, and the same with every other diagonal
    entry cleared: symmetric, indefinite, with zero diagonal entries."""
    out = []
    for a in rows:
        if a and len(a) == len(a[0]):
            s = [[x + y for x, y in zip(r, c)] for r, c in zip(a, zip(*a))]
            out.append(s)
            out.append([[0 if i == j and i % 2 else v
                         for j, v in enumerate(r)] for i, r in enumerate(s)])
    return out


def gf_rank(m):
    return rank_mod({(i, j): v for i, j, v in m.triples()}, exact._MODULUS)


def certified(m):
    """exact.rank_mod of the square SparseIntMatrix m, read as its entries."""
    return exact.rank_mod(exact.envelope(matrix_entries(m)))


def test_rank_mod_matches_the_oracles():
    # on a Gram matrix the order of the principal submatrix found is its
    # GF(q) rank and its rational rank, which is rank(A); on an indefinite
    # matrix it is a lower bound, reached on some and missed on others
    cases = rank_mod_cases(random.Random(49))
    deficient = 0
    for rows in cases:
        m = to_sparse(gram(rows))
        r = certified(m)
        assert r == gf_rank(m) == rank(to_sparse(rows)), rows
        deficient += r < m.nrows
    assert deficient > 10
    below = reached = 0
    for rows in indefinite(cases):
        m = to_sparse(rows)
        r, want = certified(m), gf_rank(m)
        assert r <= want, rows
        below += r < want
        reached += 0 < r == want
    assert below > 5 and reached > 0


def test_rank_mod_of_empty_shapes_is_zero():
    for n in (0, 7):
        assert certified(SparseIntMatrix(n, n)) == 0


def test_rank_mod_refuses_a_non_square_or_non_symmetric_matrix():
    # the entries carry one n, so a non-square matrix has no entry form;
    # a non-symmetric one is refused before its RCM order is taken
    bad = [to_sparse([[1, 2], [3, 1]]),
           to_sparse([[0, 1], [1 + exact._MODULUS, 0]]),
           to_sparse([[1, 0, 5], [0, 1, 0], [0, 0, 1]])]
    for m in bad:
        with pytest.raises(ValueError):
            certified(m)


@functools.lru_cache(maxsize=None)
def symmetric_cases(seed):
    """The Gram matrices of rank_mod_cases(seed) with their rational ranks,
    and its indefinite matrices, shared by the parametrized tests below."""
    cases = rank_mod_cases(random.Random(seed))
    return ([to_sparse(gram(rows)) for rows in cases],
            [rank(to_sparse(rows)) for rows in cases],
            [to_sparse(rows) for rows in indefinite(cases)])


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_rank_mod_does_not_depend_on_the_panel_width(width, monkeypatch):
    # each index is kept or left out by its Schur complement pivot, whatever
    # the blocking, so indefinite inputs keep their count as well
    grams, want, others = symmetric_cases(50)
    counts = [certified(m) for m in others]
    monkeypatch.setattr(exact, "_PANEL", width)
    assert [certified(m) for m in grams] == want
    assert [certified(m) for m in others] == counts


@pytest.mark.parametrize("terms", [0, 1, 40])
def test_rank_mod_does_not_depend_on_when_the_trailing_block_is_reduced(
        terms, monkeypatch):
    grams, want, others = symmetric_cases(50)
    counts = [certified(m) for m in others]
    monkeypatch.setattr(exact, "_TERMS", terms)
    monkeypatch.setattr(exact, "_PANEL", 4)
    assert [certified(m) for m in grams] == want
    assert [certified(m) for m in others] == counts


def banded(n, band, entry, rng):
    """A symmetric n x n matrix with entry(i, j) at |i - j| < band, i <= j,
    its indices relabelled by a seeded permutation, so that only the RCM
    order recovers the band."""
    label = rng.sample(range(n), n)
    rows = {}
    for i in range(n):
        for j in range(i, min(i + band, n)):
            v = entry(i, j)
            if v:
                rows.setdefault(label[i], {})[label[j]] = v
                rows.setdefault(label[j], {})[label[i]] = v
    return SparseIntMatrix(n, n, rows)


def banded_gram(n, band, rng, big=False):
    """A^T A for an n x n upper-banded A whose rows have band entries from
    the diagonal on, with one row in five cleared: a Gram matrix of
    bandwidth band - 1 and of rational rank the number of rows kept. With
    big, some entries of A are beyond the modulus."""
    hi = 5 * exact._MODULUS if big else 3
    a = [{} for _ in range(n)]
    kept = 0
    for r in range(n):
        if rng.random() < 0.2:
            continue
        kept += 1
        a[r][r] = rng.choice([-1, 1]) * rng.randint(1, 3)
        for c in range(r + 1, min(r + band, n)):
            a[r][c] = rng.randint(-hi, hi) if rng.random() < 0.6 else 0
    return banded(n, band, lambda i, j: sum(
        a[r].get(i, 0) * a[r].get(j, 0)
        for r in range(max(0, j - band + 1), i + 1)), rng), kept


@functools.lru_cache(maxsize=None)
def banded_cases(seed):
    """Seeded banded matrices of several hundred rows and bandwidth under
    10, on which the window of rank_mod slides: Gram matrices with their
    rational ranks, and indefinite ones, two with zero diagonal entries so
    that pivots are skipped, with the count of the unblocked elimination
    in the RCM order."""
    rng = random.Random(seed)
    grams, ranks = [], []
    for n, band, big in ((300, 4, False), (457, 10, False), (389, 6, True)):
        m, r = banded_gram(n, band, rng, big)
        grams.append(m)
        ranks.append(r)
    others = [banded(n, band, lambda i, j: 0 if zero and i == j and i % zero
                     or rng.random() < sparse else rng.randint(-3, 3), rng)
              for n, band, zero, sparse in ((350, 5, 2, 0.7), (411, 9, 3, 0.3),
                                            (333, 3, None, 0))]
    q = exact._MODULUS
    counts = [pivot_count_mod({(i, j): v for i, j, v in m.triples()},
                              dict_rcm(m.rows, m.nrows), q)
              for m in others]
    return grams, ranks, others, counts


@pytest.mark.parametrize("terms", [0, 1, 40, exact._TERMS])
@pytest.mark.parametrize("width", [1, 2, 3, 7, 32])
def test_rank_mod_slides_its_window_without_changing_the_count(
        width, terms, monkeypatch):
    grams, ranks, others, counts = banded_cases(51)
    monkeypatch.setattr(exact, "_PANEL", width)
    monkeypatch.setattr(exact, "_TERMS", terms)
    for m, r in zip(grams, ranks):
        assert exact.envelope(matrix_entries(m))[0] < m.nrows
        assert certified(m) == gf_rank(m) == r
    for m, count in zip(others, counts):
        assert exact.envelope(matrix_entries(m))[0] < m.nrows
        assert certified(m) == count


def test_rank_mod_stores_a_window_not_the_block():
    # the dense route filled n^2 float64 entries, 34 MB here
    n = 2048
    m, _ = banded_gram(n, 4, random.Random(52))
    entries = matrix_entries(m)
    # numpy and its BLAS load outside the trace
    exact.rank_mod(exact.envelope(entries))
    tracemalloc.start()
    try:
        r = exact.rank_mod(exact.envelope(entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == gf_rank(m)
    assert peak < n * n * 8 / 20, peak


def test_rank_mod_updates_its_window_in_place():
    # the trailing update and its reductions run row block by row block
    # through one buffer: on three_sphere k=2 L_4 (window side 478) the
    # traced peak was 1.88 windows when they made window-size temporaries
    c = catalog.three_sphere()
    env = exact.envelope(matrix_entries(
        cohomology_data((c, c)).dirac.laplacian_blocks[4]))
    exact.rank_mod(env)
    tracemalloc.start()
    try:
        exact.rank_mod(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * env[0] ** 2 * 8, peak / (env[0] ** 2 * 8)


def test_dense_array_matches_the_dense_rows():
    cases = pivot_cases(random.Random(1316))
    cases += [SparseIntMatrix(0, 0), SparseIntMatrix(0, 4),
              SparseIntMatrix(4, 0), SparseIntMatrix(3, 5)]
    for m in cases:
        want = np.array(m.to_dense(), float).reshape(m.nrows, m.ncols)
        got = exact.dense_array(m)
        assert got.dtype == want.dtype and np.array_equal(got, want), m.rows


def test_gram_entries_stay_exact_in_int64():
    # one product per row of m: 2 * (2**31)**2 reaches 2**63, one does not
    col = SparseIntMatrix(2, 1, {0: {0: 2 ** 31}, 1: {0: -2 ** 31}})
    with pytest.raises(OverflowError):
        exact.gram_entries(col)
    col.rows.pop(1)
    n, ii, jj, vals = exact.gram_entries(col)
    assert (n, ii.tolist(), jj.tolist(), vals.tolist()) == (
        1, [0], [0], [2 ** 62])
    n, ii, jj, vals = exact.gram_entries(SparseIntMatrix(3, 2))
    assert n == 2 and ii.size == jj.size == vals.size == 0


def test_rcm_does_not_depend_on_the_insertion_order_of_the_rows():
    # ties of degree are broken by index, so the band is a function of the
    # matrix: the Laplacian blocks of these complexes have many equal degrees;
    # exact._rcm walks the ascending CSR lists of the entries, and gives the
    # order of the dict oracle, which sorts each neighbour list itself
    rng = random.Random(2121)
    grams, _, others = symmetric_cases(50)
    banded_grams, _, banded_others, _ = banded_cases(51)
    cases = grams + others + banded_grams + banded_others
    for c in [cylinder(), moebius(), octahedron()] + [
            generate_complex(random_facets(rng)) for _ in range(6)]:
        for k in (1, 2):
            data = cohomology_data((c,) * k)
            cases += data.dirac.laplacian_blocks
    for m in cases:
        want = dict_rcm(m.rows, m.nrows)
        assert sorted(want) == list(range(m.nrows))
        n, ii, jj, _ = matrix_entries(m)
        ptr = ii.searchsorted(np.arange(n + 1)).tolist()
        assert exact._rcm(ptr, jj.tolist()) == want
        for _ in range(3):
            shuffled = {i: dict(rng.sample(list(m.rows[i].items()),
                                           len(m.rows[i])))
                        for i in rng.sample(list(m.rows), len(m.rows))}
            assert dict_rcm(shuffled, m.nrows) == want


def test_rank_mod_is_only_a_lower_bound():
    m = to_sparse([[1, 0], [0, exact._MODULUS]])
    assert certified(m) == 1
    assert rank(m) == 2


def test_cylinder_harmonic_forms_match_the_fraction_oracle():
    # the 160x160 and 144x144 order-2 Laplacian blocks carrying the
    # cylinder's two harmonic forms
    c = cylinder()
    data = cohomology_data((c, c))
    for p in (2, 3):
        block = data.dirac.laplacian_blocks[p]
        assert data.harmonic[p] == fraction_kernel(block.to_dense())


def test_kernel_basis_vectors_are_primitive_integers():
    m = to_sparse([[2, -2, 0], [0, 0, 0]])
    basis = kernel_basis(m)
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        from math import gcd
        g = 0
        for x in vec:
            g = gcd(g, x)
        assert g == 1


def test_charpoly_of_known_matrix():
    # det(x I - A) for [[2, 1], [1, 2]] is x^2 - 4x + 3
    assert charpoly([[2, 1], [1, 2]]) == [1, -4, 3]


def test_charpoly_matches_numpy_on_random_symmetric_matrices():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, n, lo=-3, hi=3, density=1.0)
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        ours = charpoly(sym)
        theirs = np.poly(np.array(sym, dtype=float))
        assert len(ours) == len(theirs)
        for x, y in zip(ours, theirs):
            assert abs(x - y) < 1e-6 * max(1.0, abs(y)), (sym, ours, theirs)


def test_charpoly_constant_term_is_signed_determinant():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(1, 6)
        rows = random_int_matrix(rng, n, n)
        cp = charpoly(rows)
        assert cp[-1] == (-1) ** n * det_bareiss(rows)
