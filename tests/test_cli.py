import json
import re

import pytest

from wucalc import cli, exact
from wucalc.catalog import cylinder
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
]


@pytest.mark.parametrize("argv", BAD_INPUT)
def test_bad_input_is_one_line_and_exit_1(argv, triangle, tmp_path, capsys):
    neg_edges = tmp_path / "neg.txt"
    neg_edges.write_text("1 2\n-1 2\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    paths = {"f": triangle,
             "cyl": write_json(tmp_path, "cylinder.json",
                               [f for f in cylinder().cells if len(f) == 3]),
             "neg": write_json(tmp_path, "neg.json", [[0, -1], [1, 2]]),
             "path15": write_json(tmp_path, "path15.json",
                                  [[i, i + 1] for i in range(1, 15)]),
             "neg_edges": str(neg_edges),
             "binary": str(binary)}
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


def test_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    listed = re.findall(r"^    (\S+)", out, re.M)
    assert listed == list(cli.COMMANDS)
