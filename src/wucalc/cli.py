"""Command line front end.

Every command reads complexes from files and writes one JSON object to
stdout (the fixtures command writes a plain text report instead). Two input
formats are sniffed automatically:

  * JSON: a list of facets, each a list of integer vertices, or an object
    with a "facets" key holding such a list (the refine command emits this
    form, so refinements pipe back in).
  * edge list: one "u v" pair per line; the complex is the Whitney complex
    of the graph, with every clique filled in.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a requested
mathematical check fails. A refusal is a ValueError, an InputError from here
or a library budget (simplices, product cells, k-tuples, dense size), and
only main maps it to exit 1 and one stderr line; a broken invariant, an
ArithmeticError, is not caught. -k refuses orders above MAX_ORDER.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import catalog
from .basis import (
    euler_polynomial,
    f_tensor,
    multivariate_euler_polynomial,
    polynomial_string,
    wu_characteristic,
)
from .cohomology import (
    cohomology_data,
    euler_poincare_check,
    normalize_complexes,
)
from .connection import (
    connection_graph,
    fermi_characteristic,
    fredholm_characteristic,
    wu_via_connection_trace,
)
from .dynamics import block_spectra, lax_deform, lax_steps, supersymmetry_gap
from .exact import check_dense
from .lefschetz import complex_automorphisms, lefschetz_fixed_point_check
from .ring import kuenneth_check, product_cell_complex
from .simplicial import (
    Complex,
    Graph,
    barycentric_refinement,
    euler_characteristic,
    euler_curvature,
    f_vector,
    generate_complex,
    inclusion_edges,
    inductive_dimension,
    whitney_complex,
)

USAGE_EXIT = 1
CHECK_EXIT = 2


class InputError(ValueError):
    """Input this module refuses before any library call."""


class CheckFailure(Exception):
    """A computation finished but a mathematical check did not hold."""


class Parser(argparse.ArgumentParser):
    """Usage errors end as one stderr line and exit code 1; -h shows usage."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


class CommandParser(Parser):
    """The parser of one command. It takes argv with the command name in
    front and refuses arguments it does not know under the name "wucalc",
    so it gives what the full parser gives for that argv."""

    def parse_args(self, args):
        name, *rest = args
        namespace, extras = self.parse_known_args(
            rest, argparse.Namespace(command=name))
        if extras:
            self.exit(USAGE_EXIT, "wucalc: error: unrecognized arguments: "
                                  f"{' '.join(extras)}\n")
        return namespace


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


# The highest interaction order -k accepts, checked before k copies of
# anything are made. The exact tuple count refuses an order of 25 or more on
# a complex with an edge (2**k tuples meet at one of its vertices), so only
# 0-dimensional complexes reach this bound, which sits below the first
# recursion failure under the default limit of 1,000 frames: order 495 in
# fmatrix's nested output, about 990 in the walk of build_basis behind betti.
MAX_ORDER = 256


def order(text: str) -> int:
    value = positive_int(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"{text} is over the maximum order {MAX_ORDER}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def parse_facets_json(data):
    if isinstance(data, dict):
        if "facets" not in data:
            raise InputError("JSON object input needs a 'facets' key")
        data = data["facets"]
    if not isinstance(data, list) or not data:
        raise InputError("JSON input must be a non-empty list of facets")
    facets = []
    for i, facet in enumerate(data):
        if not isinstance(facet, list) or not facet:
            raise InputError(f"facet {i} is not a non-empty list")
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in facet):
            raise InputError(f"facet {i} has non-integer vertices")
        if min(facet) < 0:
            raise InputError(f"facet {i} has a negative vertex; vertex ids "
                             "must be non-negative integers")
        facets.append(tuple(facet))
    return generate_complex(facets)


def parse_edge_lines(text: str):
    edges = []
    vertices = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: vertices must be integers")
        if min(u, v) < 0:
            raise InputError(f"line {lineno}: negative vertex; vertex ids "
                             "must be non-negative integers")
        if u == v:
            raise InputError(f"line {lineno}: self loop {u}")
        vertices.update((u, v))
        edges.append((u, v))
    if not edges:
        raise InputError("no edges found in input")
    return whitney_complex(Graph(vertices, edges))


def load_complex(path: str) -> Complex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not text.strip():
        raise InputError(f"{path} is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return parse_edge_lines(text)
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    return parse_facets_json(data)


def jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None  # strict JSON has no Infinity or NaN
    return value


def emit(payload):
    print(json.dumps(jsonable(payload), indent=2))


# ---------------------------------------------------------------------------
# commands


def _load_k_complexes(args):
    """One complex, taken k times, or exactly k complexes, one per file."""
    complexes = [load_complex(p) for p in args.files]
    if len(complexes) == 1:
        return complexes[0]
    if len(complexes) != args.k:
        raise InputError(
            f"got {len(args.files)} files; need 1 or exactly k={args.k}")
    return complexes


def cmd_betti(args):
    result = euler_poincare_check(_load_k_complexes(args), args.k)
    emit(result)
    if not result["euler_poincare_ok"]:
        raise CheckFailure("betti vector violates Euler-Poincare")


def cmd_wu(args):
    systems = normalize_complexes(_load_k_complexes(args), args.k)
    emit({"k": args.k, "wu": wu_characteristic(systems)})


def cmd_fvector(args):
    c = load_complex(args.file)
    emit({
        "f_vector": list(f_vector(c)),
        "euler_characteristic": euler_characteristic(c),
    })


def cmd_fmatrix(args):
    c = load_complex(args.file)
    emit({"k": args.k, "f_matrix": f_tensor(c, args.k)})


def cmd_euler_poly(args):
    c = load_complex(args.file)
    poly = multivariate_euler_polynomial(c, args.k)
    terms = {",".join(str(e) for e in exp): coeff
             for exp, coeff in sorted(poly.items())}
    emit({
        "k": args.k,
        "terms": terms,
        "polynomial": polynomial_string(poly),
    })


def cmd_refine(args):
    c = load_complex(args.file)
    refined = barycentric_refinement(c)
    emit({"facets": [list(s) for s in refined.facets()]})


def _parse_automorphism(spec: str, c: Complex) -> dict:
    try:
        data = json.loads(spec)
    except (json.JSONDecodeError, RecursionError):
        raise InputError("--aut must be 'all' or a JSON permutation")
    vs = sorted(c.vertex_set)
    if isinstance(data, list):
        if len(data) != len(vs):
            raise InputError(
                f"permutation list needs {len(vs)} images, got {len(data)}")
        t = dict(zip(vs, data))
    elif isinstance(data, dict):
        try:
            t = {int(k): v for k, v in data.items()}
        except ValueError:
            raise InputError("permutation keys must be integer vertex ids")
        if len(t) != len(data):
            raise InputError("permutation keys name one vertex twice")
        if sorted(t) != vs:
            raise InputError("permutation keys do not match the vertex set")
    else:
        raise InputError("--aut must be 'all' or a JSON permutation")
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in t.values()):
        raise InputError("permutation images must be integer vertex ids")
    if sorted(t.values()) != vs:
        raise InputError("permutation images do not match the vertex set")
    for s in c.simplices:
        if tuple(sorted(t[v] for v in s)) not in c:
            raise InputError("the map does not preserve the complex")
    return t


def cmd_lefschetz(args):
    c = load_complex(args.file)
    if args.aut == "all":
        autos = complex_automorphisms(c)
    else:
        autos = [_parse_automorphism(args.aut, c)]
    results = []
    for t in autos:
        res = lefschetz_fixed_point_check(t, c, args.k)
        res["map"] = {str(v): t[v] for v in sorted(t)}
        results.append(res)
    total = sum(r["lefschetz"] for r in results)
    payload = {
        "k": args.k,
        "automorphisms": len(results),
        "results": results,
        "lefschetz_average": str(Fraction(total, len(results))),
    }
    emit(payload)
    if not all(r["fixed_point_ok"] for r in results):
        raise CheckFailure("fixed point identity failed")


def cmd_product(args):
    a = load_complex(args.files[0])
    b = load_complex(args.files[1])
    pc = product_cell_complex([a, b])
    emit({
        "cells": len(pc.cells),
        "cell_f_vector": list(f_vector(pc)),
        "euler_polynomial": euler_polynomial(pc),
    })


def cmd_kuenneth(args):
    a = load_complex(args.files[0])
    b = load_complex(args.files[1])
    result = kuenneth_check(a, b, args.k)
    emit(result)
    if not result["kuenneth_ok"]:
        raise CheckFailure("product cohomology does not factor")


def cmd_connection(args):
    c = load_complex(args.file)
    cg = connection_graph(c)
    conn = whitney_complex(cg)
    conn_edges = {frozenset(e) for e in cg.edges}
    included = all(frozenset(e) in conn_edges for e in inclusion_edges(c))
    payload = {
        "simplices": len(c),
        "connection_edges": len(cg.edges),
        "connection_f_vector": list(f_vector(conn)),
        "refinement_subgraph_ok": included,
    }
    emit(payload)
    if not included:
        raise CheckFailure("refinement edges missing from connection graph")


def cmd_fredholm(args):
    c = load_complex(args.file)
    fredholm = fredholm_characteristic(c)
    fermi = fermi_characteristic(c)
    trace = wu_via_connection_trace(c)
    wu2 = wu_characteristic(normalize_complexes(c, 2))
    payload = {
        "fredholm": fredholm,
        "fermi": fermi,
        "unimodular_ok": fredholm == fermi,
        "connection_trace": trace,
        "wu_2": wu2,
        "trace_identity_ok": trace == wu2,
    }
    emit(payload)
    if not (payload["unimodular_ok"] and payload["trace_identity_ok"]):
        raise CheckFailure("connection identities failed")


def cmd_spectrum(args):
    c = load_complex(args.file)
    data = cohomology_data(tuple(normalize_complexes(c, args.k)))
    n = max(data.grade_counts, default=0)
    check_dense(n, n)  # the largest L_p, counted before the basis is built
    spectra = block_spectra(data.dirac, args.tol)
    gap = supersymmetry_gap(spectra, tol=args.tol)
    payload = {
        "k": args.k,
        "betti": list(data.betti),
        "spectra": [[float(x) for x in evals] for evals in spectra],
        "supersymmetry": gap,
    }
    emit(payload)
    zero_modes = [evals.count(0.0) for evals in payload["spectra"]]
    if zero_modes != payload["betti"]:
        raise CheckFailure(f"numerical zero modes {zero_modes} differ from "
                           f"the Betti numbers {payload['betti']}")
    if not gap["supersymmetric"]:
        raise CheckFailure("even and odd nonzero spectra differ")


def cmd_deform(args):
    c = load_complex(args.file)
    data = cohomology_data(tuple(normalize_complexes(c, args.k)))
    mode = "complex" if args.complex else "real"
    # D is as large as the basis; its budget is checked before either exists
    lax_steps(sum(data.grade_counts), args.tmax, args.dt)
    try:
        _, report = lax_deform(data.dirac, mode=mode,
                               t_max=args.tmax, dt=args.dt)
    except ArithmeticError as exc:
        emit({"error": str(exc)})
        raise CheckFailure(str(exc))
    report["size"] = data.dirac.size
    emit(report)
    if not (report["isospectral"] and report["nilpotent"]):
        raise CheckFailure("deformation left the isospectral set")


def cmd_curvature(args):
    c = load_complex(args.file)
    g = c.skeleton_graph()
    # a unit sphere's cliques are cliques of g, so this bounds them too
    chi = euler_characteristic(whitney_complex(g))
    curvatures = {v: euler_curvature(g, v) for v in sorted(g.vertices)}
    total = sum(curvatures.values(), Fraction(0))
    payload = {
        "curvature": {str(v): k for v, k in curvatures.items()},
        "total": total,
        "whitney_euler_characteristic": chi,
        "gauss_bonnet_ok": total == chi,
    }
    emit(payload)
    if total != chi:
        raise CheckFailure("curvatures do not sum to the Euler characteristic")


def cmd_dimension(args):
    c = load_complex(args.file)
    g = c.skeleton_graph()
    # inductive_dimension memoizes one value per vertex set it meets: the
    # whole vertex set or the common neighbourhood of a clique of g, so the
    # clique budget bounds its work too
    whitney_complex(g)
    emit({"inductive_dimension": inductive_dimension(g)})


def _pad(vec, n):
    return list(vec) + [0] * (n - len(vec))


def _fixture_row(label, wu, betti, wu_expected, betti_expected, suffix=""):
    """Print one PASS/FAIL line; True when wu and the zero-padded Betti
    vectors match the table."""
    n = max(len(betti), len(betti_expected))
    ok = wu == wu_expected and _pad(betti, n) == _pad(betti_expected, n)
    print(f"  {'PASS' if ok else 'FAIL'} {label} "
          f"wu={wu} betti={list(betti)}{suffix}")
    return ok


def cmd_fixtures(args):
    oks = []
    print("main table (name, k, wu, betti):")
    for (name, k), expected in sorted(catalog.MAIN_TABLE.items()):
        if (name, k) in catalog.GATES["large"] and not args.large:
            print(f"  SKIP {name} k={k} (gated)")
            continue
        result = euler_poincare_check(catalog.NAMED[name](), k)
        oks.append(_fixture_row(f"{name} k={k}", result["wu"],
                                result["betti"], *expected))
    print("pair table (name, wu, betti):")
    for name, g, h, wu_expected, betti_expected, note in \
            catalog.pair_fixtures():
        result = euler_poincare_check([g, h], 2)
        oks.append(_fixture_row(name, result["wu"], result["betti"],
                                wu_expected, betti_expected,
                                f"  ({note})" if note else ""))
    failures = oks.count(False)
    print(f"{len(oks)} fixtures run, {failures} failed")
    if failures:
        raise CheckFailure(f"{failures} fixtures failed")


# ---------------------------------------------------------------------------
# wiring


def _arg(*names, **options):
    """One add_argument call, as (names, options)."""
    return names, options


FILE = _arg("file", metavar="FILE")
FILES = _arg("files", nargs="+", metavar="FILE")
PAIR = _arg("files", nargs=2, metavar="FILE")
K = _arg("-k", type=order, default=2,
         help="interaction order (default 2)")

# name -> (handler, help, arguments), in the order `wucalc --help` lists them
COMMANDS = {
    "betti": (cmd_betti, "betti vector and Euler-Poincare check",
              [FILES, K]),
    "wu": (cmd_wu, "Wu characteristic of order k", [FILES, K]),
    "fvector": (cmd_fvector, "simplex counts by dimension", [FILE]),
    "fmatrix": (cmd_fmatrix, "counts of intersecting k-tuples by dimension "
                             "profile", [FILE, K]),
    "euler-poly": (cmd_euler_poly, "multivariate Euler polynomial",
                   [FILE, K]),
    "refine": (cmd_refine, "barycentric refinement as facets JSON", [FILE]),
    "lefschetz": (cmd_lefschetz, "Lefschetz numbers of automorphisms", [
        FILE, K,
        _arg("--aut", default="all",
             help="'all' or a JSON permutation (list of images over the "
                  "sorted vertex set, or a vertex-to-vertex map)")]),
    "product": (cmd_product, "Cartesian cell product of two inputs", [PAIR]),
    "kuenneth": (cmd_kuenneth, "product cohomology factorization", [PAIR, K]),
    "connection": (cmd_connection, "connection graph and its complex",
                   [FILE]),
    "fredholm": (cmd_fredholm, "connection determinant identities", [FILE]),
    "spectrum": (cmd_spectrum, "Laplacian block spectra", [
        FILE, K,
        _arg("--tol", type=positive_float, default=1e-8,
             help="zero mode threshold (default 1e-8)")]),
    "deform": (cmd_deform, "isospectral Lax flow of the Dirac operator", [
        FILE, K,
        _arg("--tmax", type=nonnegative_float, default=1.0),
        _arg("--dt", type=positive_float, default=0.01),
        _arg("--complex", action="store_true",
             help="use the complex flow that mixes in the diagonal")]),
    "curvature": (cmd_curvature, "per vertex curvature and Gauss-Bonnet sum",
                  [FILE]),
    "dimension": (cmd_dimension, "inductive dimension of the vertex "
                                 "skeleton", [FILE]),
    "fixtures": (cmd_fixtures, "run the built-in expectation tables", [
        _arg("--large", action="store_true",
             help="also run the gated long cases")]),
}


def _add_arguments(parser, name):
    for names, options in COMMANDS[name][2]:
        parser.add_argument(*names, **options)
    return parser


def build_parser(argv=()) -> Parser:
    """The wucalc parser. When argv[0] names a command, it is that
    command's CommandParser alone: the full parser hands everything after
    the name to the same subparser, so parsing argv gives the same result
    with one ArgumentParser built in place of two and a subparsers action.
    Otherwise (no argv, no command or an unknown one) it is the full parser
    of every command."""
    if argv and argv[0] in COMMANDS:
        return _add_arguments(CommandParser(prog=f"wucalc {argv[0]}"),
                              argv[0])
    parser = Parser(prog="wucalc",
                    description="interaction cohomology of finite complexes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--fixtures":
        argv = ["fixtures"] + list(argv[1:])
    args = build_parser(argv).parse_args(argv)
    try:
        COMMANDS[args.command][0](args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the rest goes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return USAGE_EXIT
    except ValueError as exc:  # a refusal: InputError or a library budget
        print(f"wucalc: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CheckFailure as exc:
        print(f"wucalc: check failed: {exc}", file=sys.stderr)
        return CHECK_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
