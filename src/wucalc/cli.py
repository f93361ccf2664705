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
mathematical check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import catalog
from .basis import (
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
    connection_complex,
    connection_graph,
    fermi_characteristic,
    fredholm_characteristic,
    inclusion_edges,
    wu_via_connection_trace,
)
from .dynamics import block_spectra, lax_deform, supersymmetry_gap
from .lefschetz import complex_automorphisms, lefschetz_fixed_point_check
from .ring import (
    cell_f_vector,
    kuenneth_check,
    product_cell_complex,
    ring_euler_polynomial,
)
from .simplicial import (
    Complex,
    Graph,
    barycentric_refinement,
    euler_characteristic,
    euler_curvature,
    f_vector,
    generate_complex,
    inductive_dimension,
    whitney_complex,
)

USAGE_EXIT = 1
CHECK_EXIT = 2


class InputError(Exception):
    pass


class CheckFailure(Exception):
    """A computation finished but a mathematical check did not hold."""


class Parser(argparse.ArgumentParser):
    """Usage errors end as one stderr line and exit code 1; -h shows usage."""

    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
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
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    if not text.strip():
        raise InputError(f"{path} is empty")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return parse_edge_lines(text)
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
    return value


def emit(payload):
    print(json.dumps(jsonable(payload), indent=2))


# ---------------------------------------------------------------------------
# commands


def cmd_betti(args):
    complexes = [load_complex(p) for p in args.files]
    if len(complexes) == 1:
        complexes = complexes[0]
    elif len(complexes) != args.k:
        raise InputError(
            f"got {len(args.files)} files; need 1 or exactly k={args.k}")
    result = euler_poincare_check(complexes, args.k)
    emit(result)
    if not result["euler_poincare_ok"]:
        raise CheckFailure("betti vector violates Euler-Poincare")


def cmd_wu(args):
    complexes = [load_complex(p) for p in args.files]
    if len(complexes) == 1:
        systems = normalize_complexes(complexes[0], args.k)
    elif len(complexes) == args.k:
        systems = normalize_complexes(complexes, args.k)
    else:
        raise InputError(
            f"got {len(args.files)} files; need 1 or exactly k={args.k}")
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
    except json.JSONDecodeError:
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
        try:
            autos = complex_automorphisms(c)
        except ValueError as exc:
            raise InputError(str(exc)) from None
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
        "cell_f_vector": list(cell_f_vector(pc)),
        "euler_polynomial": ring_euler_polynomial(pc),
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
    conn = connection_complex(c)
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
    try:
        spectra = block_spectra(data.dirac, tol=args.tol,
                                exact_nullities=data.betti)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    gap = supersymmetry_gap(spectra, tol=args.tol)
    payload = {
        "k": args.k,
        "betti": list(data.betti),
        "spectra": [[float(x) for x in evals] for evals in spectra],
        "supersymmetry": gap,
    }
    emit(payload)
    if not gap["supersymmetric"]:
        raise CheckFailure("even and odd nonzero spectra differ")


def cmd_deform(args):
    c = load_complex(args.file)
    data = cohomology_data(tuple(normalize_complexes(c, args.k)))
    mode = "complex" if args.complex else "real"
    try:
        states, report = lax_deform(data.dirac, mode=mode,
                                    t_max=args.tmax, dt=args.dt)
    except ValueError as exc:
        raise InputError(str(exc)) from None
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
    curvatures = {v: euler_curvature(g, v) for v in sorted(g.vertices)}
    total = sum(curvatures.values(), Fraction(0))
    chi = euler_characteristic(whitney_complex(g))
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
    emit({"inductive_dimension": inductive_dimension(g)})


def _pad(vec, n):
    return list(vec) + [0] * (n - len(vec))


def cmd_fixtures(args):
    from .ring import ring_betti, ring_wu

    failures = 0
    ran = 0
    print("main table (name, k, wu, betti):")
    for (name, k), (wu_expected, betti_expected) in sorted(
            catalog.MAIN_TABLE.items()):
        if (name, k) in catalog.GATES["large"] and not args.large:
            print(f"  SKIP {name} k={k} (gated)")
            continue
        c = catalog.NAMED[name]()
        if isinstance(c, Complex):
            result = euler_poincare_check(c, k)
            wu, betti = result["wu"], result["betti"]
        else:
            wu = ring_wu(c, k)
            betti = ring_betti(c, k)
        n = max(len(betti), len(betti_expected))
        ok = (wu == wu_expected
              and _pad(betti, n) == _pad(betti_expected, n))
        ran += 1
        failures += not ok
        print(f"  {'PASS' if ok else 'FAIL'} {name} k={k} "
              f"wu={wu} betti={list(betti)}")
    print("pair table (name, wu, betti):")
    for name, g, h, wu_expected, betti_expected, note in \
            catalog.pair_fixtures():
        result = euler_poincare_check([g, h], 2)
        wu, betti = result["wu"], result["betti"]
        n = max(len(betti), len(betti_expected))
        ok = (wu == wu_expected
              and _pad(betti, n) == _pad(betti_expected, n))
        ran += 1
        failures += not ok
        suffix = f"  ({note})" if note else ""
        print(f"  {'PASS' if ok else 'FAIL'} {name} "
              f"wu={wu} betti={list(betti)}{suffix}")
    print(f"{ran} fixtures run, {failures} failed")
    if failures:
        raise CheckFailure(f"{failures} fixtures failed")


# ---------------------------------------------------------------------------
# wiring


def _add_k(p):
    p.add_argument("-k", type=positive_int, default=2,
                   help="interaction order (default 2)")


def build_parser() -> Parser:
    parser = Parser(prog="wucalc",
                    description="interaction cohomology of finite complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="betti vector and Euler-Poincare check")
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_k(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("wu", help="Wu characteristic of order k")
    p.add_argument("files", nargs="+", metavar="FILE")
    _add_k(p)
    p.set_defaults(fn=cmd_wu)

    p = sub.add_parser("fvector", help="simplex counts by dimension")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_fvector)

    p = sub.add_parser("fmatrix", help="counts of intersecting k-tuples "
                                       "by dimension profile")
    p.add_argument("file", metavar="FILE")
    _add_k(p)
    p.set_defaults(fn=cmd_fmatrix)

    p = sub.add_parser("euler-poly", help="multivariate Euler polynomial")
    p.add_argument("file", metavar="FILE")
    _add_k(p)
    p.set_defaults(fn=cmd_euler_poly)

    p = sub.add_parser("refine", help="barycentric refinement as facets JSON")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("lefschetz", help="Lefschetz numbers of automorphisms")
    p.add_argument("file", metavar="FILE")
    _add_k(p)
    p.add_argument("--aut", default="all",
                   help="'all' or a JSON permutation (list of images over "
                        "the sorted vertex set, or a vertex-to-vertex map)")
    p.set_defaults(fn=cmd_lefschetz)

    p = sub.add_parser("product", help="Cartesian cell product of two inputs")
    p.add_argument("files", nargs=2, metavar="FILE")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("kuenneth", help="product cohomology factorization")
    p.add_argument("files", nargs=2, metavar="FILE")
    _add_k(p)
    p.set_defaults(fn=cmd_kuenneth)

    p = sub.add_parser("connection", help="connection graph and its complex")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_connection)

    p = sub.add_parser("fredholm", help="connection determinant identities")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_fredholm)

    p = sub.add_parser("spectrum", help="Laplacian block spectra")
    p.add_argument("file", metavar="FILE")
    _add_k(p)
    p.add_argument("--tol", type=positive_float, default=1e-8,
                   help="zero mode threshold (default 1e-8)")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("deform", help="isospectral Lax flow of the Dirac "
                                      "operator")
    p.add_argument("file", metavar="FILE")
    _add_k(p)
    p.add_argument("--tmax", type=nonnegative_float, default=1.0)
    p.add_argument("--dt", type=positive_float, default=0.01)
    p.add_argument("--complex", action="store_true",
                   help="use the complex flow that mixes in the diagonal")
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("curvature", help="per vertex curvature and "
                                         "Gauss-Bonnet sum")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("dimension", help="inductive dimension of the "
                                         "vertex skeleton")
    p.add_argument("file", metavar="FILE")
    p.set_defaults(fn=cmd_dimension)

    p = sub.add_parser("fixtures", help="run the built-in expectation tables")
    p.add_argument("--large", action="store_true",
                   help="also run the gated long cases")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--fixtures":
        argv = ["fixtures"] + list(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except InputError as exc:
        print(f"wucalc: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CheckFailure as exc:
        print(f"wucalc: check failed: {exc}", file=sys.stderr)
        return CHECK_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
