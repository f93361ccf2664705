"""Regression fixtures with fully written out Laplacian blocks.

The small path and octahedron examples are checked entry by entry; block
spectra are compared through integer characteristic polynomials, which is
permutation invariant and needs no floating point tolerance at all.
"""

from wucalc.catalog import generate_complex, moebius, octahedron, path_complex
from wucalc.cohomology import cohomology_data
from wucalc.exact import det_bareiss, kernel_basis

from oracles import charpoly

PATH_L0 = [[2, 0, 0], [0, 4, 0], [0, 0, 2]]
PATH_L1 = [
    [2, -1, 0, 0, 0, -1, 0, 0],
    [-1, 3, -1, 0, -1, 0, 0, 0],
    [0, -1, 3, -1, 0, 0, 0, -1],
    [0, 0, -1, 2, 0, 0, -1, 0],
    [0, -1, 0, 0, 2, -1, 0, 0],
    [-1, 0, 0, 0, -1, 3, -1, 0],
    [0, 0, 0, -1, 0, -1, 3, -1],
    [0, 0, -1, 0, 0, 0, -1, 2],
]
PATH_L2 = [
    [4, -1, -1, 0],
    [-1, 2, 0, -1],
    [-1, 0, 2, -1],
    [0, -1, -1, 4],
]


def test_path_pair_blocks_have_the_published_spectra():
    p3 = path_complex(3)
    data = cohomology_data((p3, p3))
    assert data.dirac.grade_sizes == [3, 8, 4]
    for block, reference in zip(data.dirac.laplacian_blocks,
                                (PATH_L0, PATH_L1, PATH_L2)):
        assert charpoly(block.to_dense()) == charpoly(reference)
    assert data.betti == [0, 1, 0]


def test_path_restricted_to_middle_point():
    p3 = path_complex(3)
    data = cohomology_data((p3, generate_complex([(2,)])))
    blocks = [b.to_dense() for b in data.dirac.laplacian_blocks]
    assert blocks == [[[2]], [[1, -1], [-1, 1]]]
    assert data.betti == [0, 1]
    assert data.harmonic[1] == [[1, 1]]


def test_path_restricted_to_endpoint_is_trivial():
    p3 = path_complex(3)
    data = cohomology_data((p3, generate_complex([(1,)])))
    assert [b.to_dense() for b in data.dirac.laplacian_blocks] == \
        [[[1]], [[1]]]
    assert data.betti == [0, 0]


def test_octahedron_against_a_vertex():
    data = cohomology_data((octahedron(), generate_complex([(1,)])))
    assert data.dirac.grade_sizes == [1, 4, 4]
    blocks = [b.to_dense() for b in data.dirac.laplacian_blocks]
    assert blocks[0] == [[4]]
    assert blocks[1] == [[3, 0, 0, 1], [0, 3, 1, 0], [0, 1, 3, 0],
                         [1, 0, 0, 3]]
    assert blocks[2] == [[2, 1, -1, 0], [1, 2, 0, -1], [-1, 0, 2, 1],
                         [0, -1, 1, 2]]
    assert data.betti == [0, 0, 1]


def test_octahedron_point_kernel_is_the_alternating_vector():
    data = cohomology_data((octahedron(), generate_complex([(1,)])))
    full = data.dirac.dirac.matmul(data.dirac.dirac)
    kernel = kernel_basis(full)
    assert len(kernel) == 1
    vec = kernel[0]
    target = [0, 0, 0, 0, 0, -1, 1, -1, 1]
    assert vec == target or vec == [-v for v in target]


def test_moebius_blocks_are_invertible_with_the_published_determinant():
    data = cohomology_data((moebius(), moebius()))
    assert data.dirac.grade_sizes == [7, 56, 140, 126, 35]
    assert data.betti == [0, 0, 0, 0, 0]
    l1 = data.dirac.laplacian_blocks[1].to_dense()
    det = det_bareiss(l1)
    assert det == 2 ** 46 * 3 ** 7 * 5 * 7 ** 3 * 17 ** 7 * 42924041 ** 2


def test_cylinder_pair_betti():
    from wucalc.catalog import cylinder
    data = cohomology_data((cylinder(), cylinder()))
    assert data.betti == [0, 0, 1, 1, 0]
    assert len(data.harmonic[2]) == 1
    assert len(data.harmonic[3]) == 1
