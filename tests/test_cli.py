import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wucalc import catalog, cli, dynamics, exact
from wucalc.catalog import cylinder, generate_complex
from wucalc.cohomology import cohomology_data


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, facets):
    p = tmp_path / name
    p.write_text(json.dumps(facets))
    return str(p)


@pytest.fixture
def triangle(tmp_path):
    return write_json(tmp_path, "triangle.json", [[1, 2, 3]])


@pytest.fixture
def interval(tmp_path):
    return write_json(tmp_path, "interval.json", [[1, 2]])


def test_wu_of_a_path(tmp_path, capsys):
    path = write_json(tmp_path, "path.json", [[1, 2], [2, 3]])
    code, out, _ = run(capsys, "wu", path, "-k", "2")
    assert code == 0
    assert json.loads(out) == {"k": 2, "wu": -1}


def test_betti_reports_the_euler_poincare_check(triangle, capsys):
    code, out, _ = run(capsys, "betti", triangle, "-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_poincare_ok"]
    assert payload["wu"] == sum(
        (-1) ** i * b for i, b in enumerate(payload["betti"]))


def test_betti_accepts_k_separate_files(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", [[1, 2], [2, 3]])
    b = write_json(tmp_path, "b.json", [[2]])
    code, out, _ = run(capsys, "betti", a, b, "-k", "2")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 1]


def test_wrong_file_count_is_a_usage_error(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", [[1, 2]])
    b = write_json(tmp_path, "b.json", [[1, 2]])
    code, _, err = run(capsys, "wu", a, b, "-k", "3")
    assert code == 1
    assert "need 1 or exactly k=3" in err


def test_missing_file_and_malformed_input(tmp_path, capsys):
    code, _, err = run(capsys, "fvector", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, _, err = run(capsys, "fvector", str(bad))
    assert code == 1
    bools = tmp_path / "bools.json"
    bools.write_text("[[true, 2]]")
    code, _, err = run(capsys, "fvector", str(bools))
    assert code == 1
    assert "non-integer" in err


def test_edge_list_input_builds_the_clique_complex(tmp_path, capsys):
    p = tmp_path / "graph.txt"
    p.write_text("# a triangle\n1 2\n2 3\n\n1 3\n")
    code, out, _ = run(capsys, "fvector", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [3, 3, 1]
    assert payload["euler_characteristic"] == 1


def test_edge_list_rejects_self_loops(tmp_path, capsys):
    p = tmp_path / "loop.txt"
    p.write_text("1 1\n")
    code, _, err = run(capsys, "fvector", str(p))
    assert code == 1
    assert "self loop" in err


def test_refine_output_feeds_back_in(triangle, tmp_path, capsys):
    code, out, _ = run(capsys, "refine", triangle)
    assert code == 0
    refined = tmp_path / "refined.json"
    refined.write_text(out)
    code, out, _ = run(capsys, "fvector", str(refined))
    assert code == 0
    assert json.loads(out)["f_vector"] == [7, 12, 6]


def test_fmatrix_of_the_triangle(triangle, capsys):
    code, out, _ = run(capsys, "fmatrix", triangle, "-k", "2")
    assert code == 0
    assert json.loads(out)["f_matrix"] == [[3, 6, 3], [6, 9, 3], [3, 3, 1]]


def test_euler_poly_of_the_interval(interval, capsys):
    code, out, _ = run(capsys, "euler-poly", interval, "-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == "2 + 2*s + 2*t + t*s"
    assert payload["terms"] == {"0,0": 2, "0,1": 2, "1,0": 2, "1,1": 1}


def test_lefschetz_all_automorphisms_of_the_square(tmp_path, capsys):
    square = write_json(tmp_path, "square.json",
                        [[1, 2], [2, 3], [3, 4], [1, 4]])
    code, out, _ = run(capsys, "lefschetz", square, "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["automorphisms"] == 8
    nums = sorted(r["lefschetz"] for r in payload["results"])
    assert nums == [0, 0, 0, 0, 2, 2, 2, 2]
    assert payload["lefschetz_average"] == "1"
    assert all(r["fixed_point_ok"] for r in payload["results"])


def test_lefschetz_with_an_explicit_permutation(tmp_path, capsys):
    square = write_json(tmp_path, "square.json",
                        [[1, 2], [2, 3], [3, 4], [1, 4]])
    code, out, _ = run(capsys, "lefschetz", square, "-k", "1",
                       "--aut", "[1, 4, 3, 2]")
    assert code == 0
    payload = json.loads(out)
    assert payload["automorphisms"] == 1
    assert payload["results"][0]["lefschetz"] == 2


@pytest.mark.parametrize("name, k, digest", [
    ("three_sphere", "2", "4c79bf527ce364af8f685e72c520c77fd75d420e"),
    ("cylinder", "3", "4e3a20803df5fdc77b680d8029218b9e407f1ac5"),
], ids=["three_sphere-k2", "cylinder-k3"])
def test_lefschetz_of_every_automorphism_is_pinned(name, k, digest, tmp_path,
                                                   capsys):
    # stdout sha1s of the route that mapped every basis tuple per map: 384
    # maps of the 3-sphere at k=2 and 16 of the cylinder at k=3
    facets = [list(f) for f in catalog.NAMED[name]().facets()]
    path = write_json(tmp_path, f"{name}.json", facets)
    code, out, _ = run(capsys, "lefschetz", path, "-k", k, "--aut", "all")
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == digest


def test_lefschetz_rejects_a_non_automorphism(tmp_path, capsys):
    path = write_json(tmp_path, "path.json", [[1, 2], [2, 3]])
    code, _, err = run(capsys, "lefschetz", path, "--aut", "[2, 1, 3]")
    assert code == 1
    assert "does not preserve" in err


def test_product_of_two_intervals(interval, capsys):
    code, out, _ = run(capsys, "product", interval, interval)
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"] == 9
    assert payload["cell_f_vector"] == [4, 4, 1]
    assert payload["euler_polynomial"] == [4, 4, 1]


def test_kuenneth_command(interval, capsys):
    code, out, _ = run(capsys, "kuenneth", interval, interval, "-k", "2")
    assert code == 0
    assert json.loads(out)["kuenneth_ok"]


def test_connection_command(triangle, capsys):
    code, out, _ = run(capsys, "connection", triangle)
    assert code == 0
    payload = json.loads(out)
    assert payload["simplices"] == 7
    assert payload["refinement_subgraph_ok"]


def test_connection_builds_one_intersection_context(tmp_path, capsys,
                                                   monkeypatch):
    # the budget count and the edge list share one walk table, built once
    # for the complex in both slots; the payload is read off the connection
    # matrix, built independently
    from wucalc import basis
    from wucalc.connection import connection_matrix
    from wucalc.simplicial import Graph, f_vector, whitney_complex

    inits = []
    real = basis._table

    def spy(system):
        inits.append(len(system))
        return real(system)

    monkeypatch.setattr(basis, "_table", spy)
    for facets in ([[1, 2, 3]], [[1, 2, 3], [3, 4], [4, 5, 6], [7]],
                   [[1, 2], [2, 3], [3, 1], [1, 4, 5]]):
        path = write_json(tmp_path, "c.json", facets)
        inits.clear()
        code, out, _ = run(capsys, "connection", path)
        m = connection_matrix(cli.load_complex(path))
        assert (code, inits) == (0, [len(m)])
        edges = [(i, j) for i, row in enumerate(m)
                 for j in range(i + 1, len(row)) if row[j]]
        conn = whitney_complex(Graph(range(len(m)), edges))
        assert out == json.dumps({
            "simplices": len(m),
            "connection_edges": len(edges),
            "connection_f_vector": list(f_vector(conn)),
            "refinement_subgraph_ok": True,
        }, indent=2) + "\n"


def test_refusals_come_before_any_tuple_work(tmp_path, capsys,
                                            monkeypatch):
    # every command behind the tuple budget refuses from the face count,
    # before it builds a walk table or enters build_basis
    from wucalc import basis, cohomology

    contexts, walks = [], []
    table = basis._table
    monkeypatch.setattr(basis, "_table",
                        lambda system: contexts.append(len(system))
                        or table(system))
    build_basis = cohomology.build_basis
    monkeypatch.setattr(cohomology, "build_basis",
                        lambda cs: walks.append(len(cs)) or build_basis(cs))
    monkeypatch.setattr(basis, "MAX_TUPLES", 100)
    path = write_json(tmp_path, "path.json",
                      [[i, i + 1] for i in range(40)])
    small = write_json(tmp_path, "small.json", [[1, 2]])
    for argv in (["betti", path, "-k", "2"], ["wu", path, "-k", "2"],
                 ["fmatrix", path, "-k", "2"], ["euler-poly", path, "-k", "2"],
                 ["spectrum", path, "-k", "2"], ["deform", path, "-k", "2"],
                 ["kuenneth", path, small, "-k", "2"],
                 ["lefschetz", path, "-k", "2", "--aut",
                  str(list(range(41)))]):
        cohomology_data.cache_clear()
        code, out, err = run(capsys, *argv)
        assert (code, out, contexts, walks) == (1, "", [], []), argv
        assert "tuple budget" in err
    # the spies are live: an input under the budget reaches both
    code, _, _ = run(capsys, "betti", small, "-k", "2")
    assert (code, contexts, walks) == (0, [3], [2])
    cohomology_data.cache_clear()


def test_a_large_facet_is_refused_before_its_faces_are_listed(
        tmp_path, capsys, monkeypatch):
    # the 4**n - 3**n pairs of faces of an n-vertex facet that meet (some
    # vertex lies in both) pass the tuple budget of 2**24 at k = 2 from
    # n = 13 on, though its 3**n - 2**n face pairs do not
    from wucalc import basis

    listed = []
    faces = basis._faces
    monkeypatch.setattr(basis, "_faces",
                        lambda x, common: listed.append(x) or faces(x, common))
    for n in (13, 14, 15):
        path = write_json(tmp_path, f"facet{n}.json", [list(range(n))])
        code, out, err = run(capsys, "wu", path, "-k", "2")
        assert (code, out, listed) == (1, "", []), n
        assert err.count("\n") == 1 and "tuple budget" in err
    # the spy is live: a small facet lists its faces
    code, _, _ = run(capsys, "wu", write_json(tmp_path, "t.json", [[1, 2, 3]]),
                     "-k", "2")
    assert code == 0 and listed


def test_profiles_over_the_budget_are_refused_before_they_expand(
        tmp_path, capsys, monkeypatch):
    # one edge: 2**(k+1) - 1 k-tuples meet, within the tuple budget at
    # k = 20, but its profile expands to 2**20 + 1 entries of 20 dimensions
    # each, over it; at k = 3 the bound is 3 * (2**3 + 1) = 27 entries
    from wucalc import basis

    edge = write_json(tmp_path, "edge.json", [[1, 2]])
    for cmd in ("fmatrix", "euler-poly"):
        code, out, err = run(capsys, cmd, edge, "-k", "20")
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert "20971540 entries" in err and "tuple budget" in err
        monkeypatch.setattr(basis, "MAX_TUPLES", 27)
        assert run(capsys, cmd, edge, "-k", "3")[0] == 0
        monkeypatch.setattr(basis, "MAX_TUPLES", 26)
        assert run(capsys, cmd, edge, "-k", "3")[:2] == (1, "")
        monkeypatch.undo()


def test_fredholm_command(triangle, capsys):
    code, out, _ = run(capsys, "fredholm", triangle)
    assert code == 0
    payload = json.loads(out)
    assert payload["unimodular_ok"]
    assert payload["trace_identity_ok"]
    assert payload["fredholm"] in (-1, 1)


def test_spectrum_command(triangle, capsys):
    code, out, _ = run(capsys, "spectrum", triangle, "-k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["supersymmetry"]["supersymmetric"]
    zeros = [sum(1 for x in s if x == 0.0) for s in payload["spectra"]]
    assert zeros == payload["betti"]


def test_spectrum_over_the_dense_budget_is_bad_input(tmp_path, capsys,
                                                     monkeypatch):
    c = cylinder()
    sizes = cohomology_data((c, c)).dirac.grade_sizes
    monkeypatch.setattr(exact, "MAX_DENSE_ENTRIES",
                        min(n for n in sizes if n) ** 2 - 1)
    cyl = write_json(tmp_path, "cylinder.json",
                     [f for f in c.cells if len(f) == 3])
    code, out, err = run(capsys, "spectrum", cyl, "-k", "2")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "dense budget" in err


@pytest.mark.parametrize("command, module, budget", [
    ("spectrum", exact, "MAX_DENSE_ENTRIES"),
    ("deform", dynamics, "MAX_LAX_WORK"),
])
def test_spectrum_and_deform_refuse_before_the_derivative_is_built(
        command, module, budget, tmp_path, capsys, monkeypatch):
    facets = [[1, 2, 3], [3, 4]]
    f = write_json(tmp_path, "f.json", facets)
    monkeypatch.setattr(module, budget, 1)
    cohomology_data.cache_clear()
    code, out, err = run(capsys, command, f, "-k", "2")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "budget" in err
    c = generate_complex(facets)
    assert "derivative" not in vars(cohomology_data((c, c)))


def test_spectrum_output_is_strict_json(tmp_path, capsys, caplog):
    # eigenvalue 2.0 sits in grades 0 and 1; with --tol 0.5 it is a nonzero
    # mode in both, so the zero modes match the Betti numbers and the even
    # and odd spectra pair up
    seg = write_json(tmp_path, "seg.json", [[1, 3], [4]])
    code, out, err = run(capsys, "spectrum", seg, "-k", "2", "--tol", "0.5")
    assert code == 0
    assert err == ""
    assert not caplog.records

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    zeros = [sum(1 for x in evals if x == 0.0) for evals in payload["spectra"]]
    assert zeros == payload["betti"]
    assert payload["supersymmetry"]["supersymmetric"]


def test_spectrum_fails_when_the_zero_modes_miss_the_betti_numbers(
        tmp_path, capsys):
    # --tol 1e300 snaps every eigenvalue to zero, so the supersymmetry check
    # holds trivially while the zero modes [4, 4, 1] miss betti [1, 0, 0]
    a = write_json(tmp_path, "a.json", [[1, 2, 3], [3, 4]])
    code, out, err = run(capsys, "spectrum", a, "-k", "1", "--tol", "1e300")
    assert code == 2
    payload = json.loads(out)
    assert payload["betti"] == [1, 0, 0]
    assert payload["supersymmetry"]["supersymmetric"]
    assert err.strip().splitlines() == [
        "wucalc: check failed: numerical zero modes [4, 4, 1] differ from "
        "the Betti numbers [1, 0, 0]"]


def test_jsonable_maps_non_finite_floats_to_null():
    value = {"gap": float("inf"), "low": -float("inf"), "nan": float("nan")}
    assert cli.jsonable(value) == {"gap": None, "low": None, "nan": None}
    assert json.loads(json.dumps(cli.jsonable([1.5, float("inf")]))) == [1.5, None]


def test_deform_command_both_modes(triangle, capsys):
    for extra in ([], ["--complex"]):
        code, out, _ = run(capsys, "deform", triangle, "-k", "2",
                           "--tmax", "0.3", "--dt", "0.01", *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["isospectral"]
        assert payload["nilpotent"]


def test_deform_reports_divergence_as_a_check_failure(triangle, capsys):
    code, _, err = run(capsys, "deform", triangle, "-k", "2",
                       "--tmax", "40", "--dt", "0.9")
    assert code == 2
    assert "check failed" in err


def test_curvature_command(triangle, capsys):
    code, out, _ = run(capsys, "curvature", triangle)
    assert code == 0
    payload = json.loads(out)
    assert payload["gauss_bonnet_ok"]
    assert payload["whitney_euler_characteristic"] == 1


def test_dimension_command(tmp_path, triangle, capsys):
    code, out, _ = run(capsys, "dimension", triangle)
    assert code == 0
    assert json.loads(out)["inductive_dimension"] == "2"
    rabbit_edges = tmp_path / "rabbit.txt"
    rabbit_edges.write_text("1 2\n1 3\n2 3\n3 4\n3 5\n")
    code, out, _ = run(capsys, "dimension", str(rabbit_edges))
    assert code == 0
    assert json.loads(out)["inductive_dimension"] == "3/2"


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_command_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


# JSON nesting this deep exhausts the decoder's recursion limit
DEEP = 100000
BAD_INPUT = [
    ["betti", "{neg}", "-k", "2"],
    ["fvector", "{neg_edges}"],
    ["betti", "{f}", "-k", "0"],
    ["wu", "{f}", "-k", "-1"],
    ["lefschetz", "{f}", "-k", "two"],
    ["deform", "{f}", "-k", "1", "--dt", "0"],
    ["deform", "{f}", "-k", "1", "--dt", "nan"],
    ["deform", "{f}", "-k", "1", "--tmax", "-1"],
    ["deform", "{f}", "-k", "1", "--tmax", "1e9"],
    ["deform", "{cyl}", "-k", "2", "--tmax", "1000"],
    ["spectrum", "{f}", "--tol", "-1"],
    ["lefschetz", "{f}", "--aut", '["a", "b", "c"]'],
    ["lefschetz", "{f}", "--aut", '{{"x": 1}}'],
    ["lefschetz", "{f}", "--aut", "[1.5, 2, 3]"],
    ["lefschetz", "{f}", "--aut", "[true, 2, 3]"],
    ["lefschetz", "{f}", "--aut", '{{"1": true, "2": 2, "3": 3}}'],
    ["lefschetz", "{path15}", "-k", "1", "--aut", "all"],
    ["lefschetz", "{f}", "--aut", '{{"1": 2, "01": 1, "2": 2, "3": 3}}'],
    ["fvector", "{binary}"],
    ["betti", "{deep}"],
    ["lefschetz", "{f}", "--aut", "[" * DEEP + "]" * DEEP],
    # over simplicial.MAX_SIMPLICES: a facet with 2**28 - 1 faces, the
    # clique complex of K26, the connection complex of a 4-simplex, the
    # connection complex of a 10-simplex (refused before its 2,047 x 2,047
    # connection matrix is built) and the clique complex that bounds the
    # inductive dimension of K26 given as JSON edge facets; over
    # connection.MAX_FREDHOLM_SIMPLICES: the determinant of that 2,047 x
    # 2,047 matrix, refused before it is built
    ["fvector", "{big}"],
    ["fvector", "{k26}"],
    ["connection", "{k5}"],
    ["connection", "{facet11}"],
    ["dimension", "{k26_facets}"],
    ["fredholm", "{facet11}"],
    # over basis.MAX_TUPLES: two triangles sharing an edge have a vertex in
    # 6 simplices, so at least 6**k k-tuples meet there (6**10 is about
    # 6e7); the walks behind these commands are refused before they start
    ["wu", "{two}", "-k", "12"],
    ["betti", "{two}", "-k", "40"],
    ["fmatrix", "{two}", "-k", "10"],
    ["euler-poly", "{two}", "-k", "10"],
    ["lefschetz", "{two}", "-k", "10"],
    ["kuenneth", "{two}", "{two}", "-k", "5"],
    ["spectrum", "{two}", "-k", "10"],
    ["deform", "{two}", "-k", "10"],
    # over cli.MAX_ORDER, refused by the type of -k before k copies of
    # anything are made: an order past the index size, one whose k-element
    # lists fill memory, one whose k-fold tables run for minutes, and
    # orders past the tuple walk's recursion on two points
    *[[cmd, "{T}", "-k", "100000000000000000000"]
      for cmd in ["betti", "wu", "fmatrix", "euler-poly", "spectrum",
                  "deform", "lefschetz"]],
    ["kuenneth", "{T}", "{T}", "-k", "100000000000000000000"],
    ["betti", "{T}", "-k", "10000000000"],
    ["betti", "{T}", "-k", "1000000"],
    ["betti", "{points}", "-k", "995"],
    ["fmatrix", "{points}", "-k", str(cli.MAX_ORDER + 1)],
    # over simplicial.MAX_SIMPLICES product cells: a 12-vertex facet has
    # 4,095 faces, so its square has about 1.7e7 cells
    ["product", "{facet12}", "{facet12}"],
    ["kuenneth", "{facet12}", "{facet12}", "-k", "1"],
    # over lefschetz.MAX_AUTOMORPHISMS: 12 isolated points and a 12-vertex
    # facet each have 12! (about 4.8e8) automorphisms; the search stops at
    # the first map past the limit
    ["lefschetz", "{points12}", "-k", "1", "--aut", "all"],
    ["lefschetz", "{facet12}", "-k", "1", "--aut", "all"],
]


@pytest.mark.parametrize("argv", BAD_INPUT)
def test_bad_input_is_one_line_and_exit_1(argv, triangle, tmp_path, capsys):
    neg_edges = tmp_path / "neg.txt"
    neg_edges.write_text("1 2\n-1 2\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * DEEP + "]" * DEEP)
    k26 = tmp_path / "k26.txt"
    k26.write_text("".join(f"{u} {v}\n" for v in range(26) for u in range(v)))
    paths = {"f": triangle,
             "cyl": write_json(tmp_path, "cylinder.json",
                               [f for f in cylinder().cells if len(f) == 3]),
             "neg": write_json(tmp_path, "neg.json", [[0, -1], [1, 2]]),
             "path15": write_json(tmp_path, "path15.json",
                                  [[i, i + 1] for i in range(1, 15)]),
             "neg_edges": str(neg_edges),
             "binary": str(binary), "deep": str(deep),
             "big": write_json(tmp_path, "big.json", [list(range(28))]),
             "k26": str(k26),
             "k5": write_json(tmp_path, "k5.json", [[1, 2, 3, 4, 5]]),
             "facet11": write_json(tmp_path, "facet11.json",
                                   [list(range(11))]),
             "k26_facets": write_json(tmp_path, "k26.json",
                                      [[u, v] for v in range(26)
                                       for u in range(v)]),
             "two": write_json(tmp_path, "two.json", [[0, 1, 2], [1, 2, 3]]),
             "T": write_json(tmp_path, "T.json", [[1, 2, 3], [3, 4]]),
             "points": write_json(tmp_path, "points.json", [[1], [2]]),
             "facet12": write_json(tmp_path, "facet12.json",
                                   [list(range(12))]),
             "points12": write_json(tmp_path, "points12.json",
                                    [[i] for i in range(12)])}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class _OwnNames(dict):
    """Format map that fills each {placeholder} with its own name."""

    def __missing__(self, key):
        return key


# every argv the tests above pass, with placeholder file names (parsing opens
# no file), plus help, no command, an unknown command and a misplaced -k
PARSE_ARGVS = [
    ["wu", "f", "-k", "2"], ["betti", "f", "-k", "2"],
    ["betti", "a", "b", "-k", "2"], ["wu", "a", "b", "-k", "3"],
    ["fvector", "f"], ["refine", "f"], ["fmatrix", "f", "-k", "2"],
    ["euler-poly", "f", "-k", "2"], ["lefschetz", "f", "-k", "1"],
    ["lefschetz", "f", "-k", "1", "--aut", "[1, 4, 3, 2]"],
    ["lefschetz", "f", "--aut", "[2, 1, 3]"], ["product", "f", "f"],
    ["kuenneth", "f", "f", "-k", "2"], ["connection", "f"], ["fredholm", "f"],
    ["spectrum", "f", "-k", "2"], ["spectrum", "f", "-k", "2", "--tol", "0.5"],
    ["deform", "f", "-k", "2", "--tmax", "0.3", "--dt", "0.01"],
    ["deform", "f", "-k", "2", "--tmax", "0.3", "--dt", "0.01", "--complex"],
    ["deform", "f", "-k", "2", "--tmax", "40", "--dt", "0.9"],
    ["curvature", "f"], ["dimension", "f"],
    [], ["--help"], ["frobnicate"], ["-k", "2", "betti"],
    # what the full parser, not the command's own, reports or accepts:
    # arguments the command does not know, an abbreviated option, an
    # attached value, a missing value and a positional after "--"
    ["fvector", "f", "g"], ["betti", "f", "--bogus"],
    ["product", "a", "b", "c"], ["deform", "f", "--tm", "2"],
    ["spectrum", "f", "--tol=1e-3"], ["betti", "f", "-k3"],
    ["betti", "f", "-k"], ["betti", "--", "-x"],
] + [[a.format_map(_OwnNames()) for a in argv] for argv in BAD_INPUT] + [
    [name, "--help"] for name in cli.COMMANDS]


@pytest.mark.parametrize("argv", PARSE_ARGVS)
def test_the_one_command_parser_parses_as_the_full_one(argv, capsys):
    def parse(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert parse(cli.build_parser(argv)) == parse(cli.build_parser())


def test_a_named_command_builds_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for name in cli.COMMANDS:
        built.clear()
        cli.build_parser([name])
        assert built == [f"wucalc {name}"]


def test_every_order_up_to_the_budget_runs(tmp_path, capsys):
    """MAX_ORDER is below every recursion the k-tuple commands make, also
    from the deeper stack of a test."""
    points = write_json(tmp_path, "points.json", [[1], [2]])
    k = str(cli.MAX_ORDER)
    for cmd in ["betti", "wu", "fmatrix", "euler-poly", "spectrum", "deform",
                "lefschetz"]:
        assert run(capsys, cmd, points, "-k", k)[0] == 0, cmd
    assert run(capsys, "kuenneth", points, points, "-k", k)[0] == 0


def _argv_with_stub(monkeypatch, name, error):
    """argv that parses as command name, whose handler now raises error."""
    def handler(args):
        raise error

    _, help_text, arguments = cli.COMMANDS[name]
    monkeypatch.setitem(cli.COMMANDS, name, (handler, help_text, arguments))
    files = sum(2 if options.get("nargs") == 2 else 1
                for names, options in arguments
                if not names[0].startswith("-"))
    return [name] + ["f"] * files


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_main_maps_every_value_error_to_exit_1(name, monkeypatch, capsys):
    argv = _argv_with_stub(monkeypatch, name, ValueError("x"))
    assert run(capsys, *argv) == (cli.USAGE_EXIT, "", "wucalc: error: x\n")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_main_lets_an_arithmetic_error_through(name, monkeypatch):
    argv = _argv_with_stub(monkeypatch, name, ArithmeticError("x"))
    with pytest.raises(ArithmeticError):
        cli.main(argv)


def test_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = re.findall(r"^    (\S+)", out, re.M)
    assert listed == list(cli.COMMANDS)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(*args):
    """sys.executable with args in a fresh interpreter that imports wucalc
    from this checkout; pytest has numpy loaded already, a fresh one not."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


# Imports wucalc, then the test oracles from the directory given as the
# second argument, then runs each command of argv lists given as JSON, and
# prints, as its last line, whether numpy was loaded after each step and the
# exit code of each command.
IMPORT_PROBE = """
import contextlib, io, json, sys
import wucalc
seen = [("import wucalc", "numpy" in sys.modules, 0)]
from wucalc import cli
seen.append(("import wucalc.cli", "numpy" in sys.modules, 0))
sys.path.insert(0, sys.argv[2])
import oracles
seen.append(("import oracles", "numpy" in sys.modules, 0))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((argv[0], "numpy" in sys.modules, code))
print(json.dumps(seen))
"""


def test_only_spectrum_and_deform_load_numpy(triangle, interval, tmp_path):
    argvs = [["betti", triangle, "-k", "2"], ["wu", triangle, "-k", "2"],
             ["fvector", triangle], ["fmatrix", triangle, "-k", "2"],
             ["euler-poly", triangle, "-k", "2"], ["refine", triangle],
             ["lefschetz", triangle, "-k", "1"],
             ["product", interval, interval],
             ["kuenneth", interval, interval, "-k", "2"],
             ["connection", triangle], ["fredholm", triangle],
             ["curvature", triangle], ["dimension", triangle],
             ["fixtures"]]
    assert {a[0] for a in argvs} == set(cli.COMMANDS) - {"spectrum", "deform"}
    # the last command shows that the probe sees numpy once it is loaded
    argvs.append(["spectrum", triangle, "-k", "1"])
    proc = run_fresh("-c", IMPORT_PROBE, json.dumps(argvs),
                     str(Path(__file__).resolve().parent))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == ([["import wucalc", False, 0],
                     ["import wucalc.cli", False, 0],
                     ["import oracles", False, 0]]
                    + [[a[0], False, 0] for a in argvs[:-1]]
                    + [["spectrum", True, 0]])


@pytest.mark.parametrize("argv", [["spectrum", "-k", "2"],
                                  ["deform", "-k", "1"]])
def test_numeric_commands_run_cold(argv, triangle, capsys):
    """spectrum and deform import numpy on first use; in a fresh interpreter
    they give the output of an in-process run."""
    cmd = [argv[0], triangle, *argv[1:]]
    proc = run_fresh("-m", "wucalc.cli", *cmd)
    code, out, _ = run(capsys, *cmd)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert code == 0


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    # the boundary of the 4-dimensional cross-polytope: its 384 Lefschetz
    # records print about 100 KiB, more than a 64 KiB pipe buffer holds, so
    # the command is still writing when the reader goes away
    s3 = write_json(tmp_path, "s3.json", [
        [a, b, c, d] for a in (1, 2) for b in (3, 4) for c in (5, 6)
        for d in (7, 8)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "wucalc.cli", "lefschetz", s3, "-k", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC))
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.USAGE_EXIT
    assert head.startswith(b'{\n  "k": 1,\n  "automorphisms": 384,')
    assert err == b""
