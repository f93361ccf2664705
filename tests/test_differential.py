import hashlib
import random

import numpy as np
import pytest

from wucalc import catalog
from wucalc.basis import build_basis
from wucalc.catalog import cylinder, generate_complex, path_complex
from wucalc.cohomology import cohomology_data, harmonic_basis
from wucalc.differential import (
    DiracLaplacian, coboundary, dirac_and_laplacian, dirac_columns,
    interaction_derivative, verify_d_squared,
)
from wucalc.dynamics import lax_deform
from wucalc.exact import SparseIntMatrix
from wucalc.lefschetz import complex_automorphisms, lefschetz_fixed_point_check
from wucalc.ring import ProductComplex
from wucalc.simplicial import Complex

from oracles import (
    coboundary_assembler, common_product_tuples, common_tuples, laplacian_is_block_diagonal,
    naive_derivative_entries, product_boundary, product_dim, random_facets,
    simplex_boundary, tuple_grades, tuple_index,
)


def test_a_derivative_block_leaves_out_exactly_its_skipped_rows():
    rng = random.Random(1212)
    cases = []
    for _ in range(6):
        c = generate_complex(random_facets(rng))
        cases += [(c,) * k for k in (1, 2, 3)]
        pc = ProductComplex([
            generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                           max_size=3))
            for _ in range(2)])
        cases += [(pc,) * k for k in (1, 2, 3)]
    for systems in cases:
        b = build_basis(systems)
        block = coboundary_assembler(b)
        for p, d in enumerate(interaction_derivative(b).blocks):
            # the transpose of the full d_p, built here from its triples
            full = {}
            for i, j, v in d.triples():
                full.setdefault(j, {})[i] = v
            skip = {j for j in range(d.ncols) if rng.random() < 0.5}
            rest = {j: r for j, r in full.items() if j not in skip}
            assert block(p, skip) == SparseIntMatrix(
                d.ncols, d.nrows, rest), (systems, p)


def test_boundary_chain_signs_alternate():
    chain = Complex.cell_boundary((1, 2, 3))
    expected = {face: sign for sign, face in simplex_boundary((1, 2, 3))}
    assert {face: sign for face, sign in chain} == expected
    assert Complex.cell_boundary((7,)) == []


def _derivative_entries(b):
    d = interaction_derivative(b)
    grades = tuple_grades(b)
    return {(grades[p + 1][i], grades[p][j]): v
            for p, m in enumerate(d.blocks) for i, j, v in m.triples()}


def test_every_derivative_entry_matches_the_naive_sign_sum():
    rng = random.Random(4409)
    for _ in range(12):
        c = generate_complex(random_facets(rng))
        for k in (1, 2, 3):
            b = build_basis(tuple([c] * k))
            naive = naive_derivative_entries(common_tuples([c.cells] * k))
            assert _derivative_entries(b) == naive
        h = generate_complex(random_facets(rng))
        b = build_basis((c, h))
        naive = naive_derivative_entries(common_tuples([c.cells, h.cells]))
        assert _derivative_entries(b) == naive


def test_product_derivative_entries_match_the_naive_sign_sum():
    rng = random.Random(2711)
    for _ in range(10):
        pc = ProductComplex([
            generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                           max_size=3))
            for _ in range(2)])
        for k in (1, 2):
            b = build_basis((pc,) * k)
            naive = naive_derivative_entries(
                common_product_tuples([pc.cells] * k),
                product_boundary, product_dim)
            assert _derivative_entries(b) == naive


def test_derivative_blocks_have_consecutive_grade_shapes():
    c = generate_complex([(1, 2, 3), (3, 4), (4, 5)])
    b = build_basis((c, c))
    d = interaction_derivative(b)
    sizes = d.grade_sizes
    assert sizes == [len(g) for g in tuple_grades(b)]
    assert len(d.blocks) == len(sizes) - 1
    for p, m in enumerate(d.blocks):
        assert (m.nrows, m.ncols) == (sizes[p + 1], sizes[p])


def test_derivative_row_of_a_full_interior_tuple():
    # Row of d for ((1,2),(1,2)) holds the product rule boundary: the first
    # factor keeps its simplex signs and the second is weighted by -1 to the
    # dimension of the first factor.
    p3 = path_complex(3)
    b = build_basis((p3, p3))
    d = interaction_derivative(b)
    r = tuple_index(b)[((1, 2), (1, 2))]
    row = d.blocks[1].to_dense()[r]
    expected = {
        ((1,), (1, 2)): -1,
        ((2,), (1, 2)): 1,
        ((1, 2), (1,)): 1,
        ((1, 2), (2,)): -1,
    }
    index = tuple_index(b)
    for t, coeff in expected.items():
        assert row[index[t]] == coeff
    assert sum(abs(v) for v in row) == 4


def test_derivative_row_drops_faces_that_leave_the_basis():
    # ((1,2),(2,3)) only meets at vertex 2; the boundary terms that lose
    # that vertex disappear instead of producing out-of-basis tuples.
    p3 = path_complex(3)
    b = build_basis((p3, p3))
    d = interaction_derivative(b)
    r = tuple_index(b)[((1, 2), (2, 3))]
    row = d.blocks[1].to_dense()[r]
    grade = tuple_grades(b)[1]
    nonzero = {grade[j]: v for j, v in enumerate(row) if v}
    assert nonzero == {((2,), (2, 3)): 1, ((1, 2), (2,)): 1}


def test_d_squared_vanishes_on_random_complexes():
    rng = random.Random(1213)
    for _ in range(25):
        c = generate_complex(random_facets(rng))
        for k in (1, 2, 3):
            b = build_basis(tuple([c] * k))
            d = interaction_derivative(b)
            assert verify_d_squared(d)
            for p in range(len(d.blocks) - 1):
                prod = d.blocks[p + 1].matmul(d.blocks[p])
                assert all(v == 0 for row in prod.to_dense() for v in row)


def test_a_cell_order_with_a_face_after_its_coface_is_refused():
    # coboundary.leads reads the least coface from the last digit, which
    # holds only when every face comes before its cofaces in cells
    c = generate_complex([(1, 2, 3), (3, 4)])
    c.cells = c.cells[::-1]
    with pytest.raises(ArithmeticError, match="does not precede"):
        coboundary(build_basis((c,)))
    rng = random.Random(3637)
    systems = [make() for make in catalog.NAMED.values()]
    systems += [generate_complex(random_facets(rng)) for _ in range(20)]
    systems += [ProductComplex([
        generate_complex(random_facets(rng, max_vertices=4, max_facets=3,
                                       max_size=3)) for _ in range(2)])
        for _ in range(5)]
    for s in systems:
        coboundary(build_basis((s,)))


def test_a_dirac_operator_refuses_a_derivative_with_nonzero_d_squared():
    # the constructor checks d^2 = 0, so no route to a DiracLaplacian, the
    # harmonic grade skip's included, can hold an inconsistent derivative
    c = cylinder()
    d = interaction_derivative(build_basis((c,)))
    assert DiracLaplacian(d).size == sum(d.grade_sizes)
    row = next(iter(d.blocks[1].rows.values()))
    j = next(iter(row))
    row[j] = -row[j]
    assert not verify_d_squared(d)
    for build in (DiracLaplacian, dirac_and_laplacian):
        with pytest.raises(ArithmeticError, match="d\\^2 != 0"):
            build(d)
    assert dirac_and_laplacian is DiracLaplacian


def test_dirac_is_symmetric_and_squares_to_the_laplacian():
    c = generate_complex([(1, 2, 3), (3, 4)])
    b = build_basis((c, c))
    dl = dirac_and_laplacian(interaction_derivative(b))
    dd = dl.dirac.to_dense()
    n = dl.size
    assert all(dd[i][j] == dd[j][i] for i in range(n) for j in range(n))
    square = dl.dirac.matmul(dl.dirac).to_dense()
    assert laplacian_is_block_diagonal(dl)
    for p, block in enumerate(dl.laplacian_blocks):
        off = dl.offsets[p]
        dense = block.to_dense()
        for i in range(block.nrows):
            for j in range(block.ncols):
                assert square[off + i][off + j] == dense[i][j]


def test_the_dirac_matrix_is_built_on_first_read(monkeypatch):
    # the stacked derivative M_p is built once, in the constructor, and
    # the Laplacian blocks, the harmonic forms and D all read it; D and the
    # L_p are built only when read
    calls = []
    monkeypatch.setattr("wucalc.differential.dirac_columns",
                        lambda d: calls.append(d) or dirac_columns(d))
    c = generate_complex([(1, 2, 3), (3, 4)])
    dl = DiracLaplacian(interaction_derivative(build_basis((c, c))))
    assert len(calls) == 1 and "dirac" not in vars(dl)
    harmonic_basis(dl)
    repr(dl)
    assert "dirac" not in vars(dl) and "laplacian_blocks" not in vars(dl)
    assert dl.dirac is dl.dirac
    lax_deform(dl, t_max=0.02)
    assert "laplacian_blocks" not in vars(dl)
    assert dl.laplacian_blocks is dl.laplacian_blocks
    assert len(calls) == 1
    # the Lefschetz check reads the harmonic forms of a fresh entry only
    cohomology_data.cache_clear()
    cyl = cylinder()
    lefschetz_fixed_point_check(complex_automorphisms(cyl)[1], cyl, 2)
    assert "laplacian_blocks" not in vars(cohomology_data((cyl, cyl)).dirac)


def _dense(m):
    return np.array(m.to_dense(), dtype=np.int64).reshape(m.nrows, m.ncols)


def test_laplacian_blocks_and_dirac_match_dense_products():
    rng = random.Random(8117)
    cases = [(generate_complex([(1,)]),)]
    for _ in range(8):
        c = generate_complex(random_facets(rng))
        cases += [tuple([c] * k) for k in (1, 2, 3)]
    cases.append((generate_complex(random_facets(rng)),
                  generate_complex(random_facets(rng))))
    for systems in cases:
        d = interaction_derivative(build_basis(systems))
        dl = DiracLaplacian(d)
        off = dl.offsets
        dirac = np.zeros((dl.size, dl.size), dtype=np.int64)
        for p, n in enumerate(d.grade_sizes):
            lp = np.zeros((n, n), dtype=np.int64)
            if p < len(d.blocks):
                dp = _dense(d.blocks[p])
                lp += dp.T @ dp
                dirac[off[p + 1]:off[p + 1] + dp.shape[0],
                      off[p]:off[p] + n] = dp
                dirac[off[p]:off[p] + n,
                      off[p + 1]:off[p + 1] + dp.shape[0]] = dp.T
            if p > 0:
                dq = _dense(d.blocks[p - 1])
                lp += dq @ dq.T
            block = dl.laplacian_blocks[p]
            assert (block.nrows, block.ncols) == (n, n)
            assert (_dense(block) == lp).all(), (systems, p)
            assert all(v for row in block.rows.values() for v in row.values())
        assert (dl.dirac.nrows, dl.dirac.ncols) == (dl.size, dl.size)
        assert (_dense(dl.dirac) == dirac).all(), systems
        assert all(v for row in dl.dirac.rows.values() for v in row.values())


def test_layouts_are_pinned():
    """Every grade's tuple order and every derivative block's entries, on
    40 seeded random complexes at k=1,2,3 and 10 products of two of them at
    k=1,2, hash to the value of the reference implementation: the layout
    that every matrix, spectrum and harmonic form downstream is read in."""
    rng = random.Random(10)
    cs = [generate_complex(random_facets(rng)) for _ in range(40)]
    cases = [(c,) * k for c in cs for k in (1, 2, 3)]
    cases += [(ProductComplex((g, h)),) * k
              for g, h in zip(cs[:10], cs[10:20]) for k in (1, 2)]
    digest = hashlib.sha1()
    for systems in cases:
        b = build_basis(systems)
        for grade in tuple_grades(b):
            digest.update(repr(grade).encode())
        for block in interaction_derivative(b).blocks:
            digest.update(repr(list(block.triples())).encode())
    assert digest.hexdigest() == "83d59576fd966fe90ba269091b730d215799d0b2"
