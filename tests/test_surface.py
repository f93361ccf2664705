"""The public surface of the package: the names wucalc exports, and the
test-only helpers that live in oracles.py rather than in the library."""

import importlib

import wucalc

PUBLIC = [
    "Complex", "Graph", "ProductComplex", "RingElement",
    "automorphism_group", "barycentric_refinement", "block_spectra",
    "build_basis", "cohomology_data", "complex_automorphisms",
    "connection_complex", "connection_graph", "dirac_and_laplacian",
    "disjoint_union", "euler_characteristic", "euler_curvature",
    "euler_poincare_check", "euler_polynomial", "f_matrix", "f_tensor",
    "f_vector", "fermi_characteristic", "fredholm_characteristic",
    "generate_complex", "inductive_dimension", "interaction_derivative",
    "kuenneth_check", "lax_deform", "lefschetz_fixed_point_check",
    "lefschetz_number", "mckean_singer_supertrace",
    "multivariate_euler_polynomial", "poincare_hopf_index",
    "poincare_polynomial", "product_cell_complex", "ring_betti", "ring_wu",
    "supersymmetry_gap", "unit_sphere", "wave_evolve", "whitney_complex",
    "wu_characteristic", "wu_via_connection_trace", "zagreb_index",
]

# module -> names that only tests called: they live in oracles.py now, or
# were graph builders folded into the catalog's complex builders
GONE = {
    "basis": ["eval_multivariate"],
    "catalog": ["two_circles", "cycle_graph", "path_graph", "star_graph",
                "wheel_graph", "octahedron_graph", "icosahedron_graph",
                "hypercube_graph", "cube_graph", "tesseract_graph"],
    "dynamics": ["dirac_spectrum", "supertrace_power"],
    "exact": ["pivot_columns"],
    "lefschetz": ["heat_trace"],
    "ring": ["ring_euler_polynomial"],
}
GONE_METHODS = {
    "exact.SparseIntMatrix": ["trace"],
    "simplicial.Graph": ["from_edges", "neighbors"],
    "ring.RingElement": ["from_complex"],
}


def test_the_exported_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 44
    assert sorted(wucalc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(wucalc, name) is not None, name


def test_test_only_helpers_are_gone_from_the_library():
    for module, names in GONE.items():
        mod = importlib.import_module(f"wucalc.{module}")
        for name in names:
            assert not hasattr(mod, name), f"wucalc.{module}.{name}"
    for path, names in GONE_METHODS.items():
        module, cls = path.split(".")
        owner = getattr(importlib.import_module(f"wucalc.{module}"), cls)
        for name in names:
            assert not hasattr(owner, name), f"wucalc.{path}.{name}"
