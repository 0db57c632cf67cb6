"""Command-line front end.

Subcommands:
  torus path A B
  torus distance A B --height H
  torus simplex V1 V2 ... [--complex finegold|surface]
  torus graph --height H [--kind finegold|surface] [--dim N]
  torus diameter --height H
  farey neighbors P,Q --height H
  seifert info --genus G --b B [--fiber A:B]...

Vectors are comma-separated integers ("2,3,5"), fibers are "alpha:beta".
Output is JSON, or on request text (DOT for `torus graph`).
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 invalid input, 1 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

# Each runner imports its own layer, so a cold start compiles only that one.
from .exactlin import _any_digits, _building


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed vector {text!r}: expected comma-separated integers") from None


def parse_fiber(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"malformed fiber {text!r}: expected alpha:beta")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"malformed fiber {text!r}: expected integers") from None


_KIND_TAGS = {"finegold": "finegold-skeleton", "surface": "surface-complex-s1"}


def _leaf(p: argparse.ArgumentParser, run: Callable, other: str = "text") -> None:
    # Called last, so the help lists the format after the leaf's arguments.
    p.add_argument("--format", choices=("json", other), default="json")
    p.set_defaults(run=run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfcomplex",
        description="Torus-complex paths and graphs, Farey neighbors, and "
        "Seifert fibered space reports.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    torus = top.add_parser("torus", help="torus-complex operations")
    tsub = torus.add_subparsers(dest="subcommand", required=True)

    p = tsub.add_parser("path", help="certified path of at most two edges")
    p.add_argument("a", help="start vertex, e.g. 2,3,5")
    p.add_argument("b", help="end vertex, e.g. 0,0,1")
    _leaf(p, _run_torus_path)

    p = tsub.add_parser("distance", help="BFS distance in a height truncation")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--height", type=int, required=True)
    _leaf(p, _run_torus_distance)

    p = tsub.add_parser("simplex", help="simplex test with witness minors")
    p.add_argument("vertices", nargs="+")
    p.add_argument("--complex", choices=tuple(_KIND_TAGS), default="finegold")
    _leaf(p, _run_torus_simplex)

    p = tsub.add_parser("graph", help="truncated 1-skeleton as DOT or JSON")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--kind", choices=tuple(_KIND_TAGS), default="surface")
    p.add_argument("--dim", type=int, default=3)
    _leaf(p, _run_torus_graph, "dot")

    p = tsub.add_parser("diameter", help="max BFS distance in a truncation")
    p.add_argument("--height", type=int, required=True)
    _leaf(p, _run_torus_diameter)

    farey = top.add_parser("farey", help="Farey graph operations")
    fsub = farey.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("neighbors", help="neighbors of a slope in a truncation")
    p.add_argument("vertex", help="slope as P,Q")
    p.add_argument("--height", type=int, required=True)
    _leaf(p, _run_farey_neighbors)

    sf = top.add_parser("seifert", help="Seifert fibered space reports")
    ssub = sf.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("info", help="invariants, homology, and classification")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--fiber", action="append", default=[], metavar="A:B")
    _leaf(p, _run_seifert_info)

    return parser


def _height(ns: argparse.Namespace) -> int:
    from . import toruscomplex
    toruscomplex._check_truncation(ns.height)
    return ns.height


# A runner computes its answer and returns two zero-argument renderings:
# the JSON payload and the other format (text, or DOT for `torus graph`).
# `_run` builds only the one that the leaf's format option selects.
_Renderings = tuple[Callable[[], object], Callable[[], str]]


def _run_torus_path(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    a, b = map(toruscomplex.canonicalize, (parse_vector(ns.a), parse_vector(ns.b)))
    cert = toruscomplex.connect_path(a, b)
    return cert.to_json_dict, lambda: " -> ".join(v.label for v in cert.waypoints)


def _run_torus_distance(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    vectors = (parse_vector(ns.a), parse_vector(ns.b))
    height = _height(ns)
    a, b = map(toruscomplex.canonicalize, vectors)
    graph = toruscomplex.build_graph("surface-complex-s1", height)
    dist = toruscomplex.bfs_distance(graph, a, b)
    value = "unreachable-in-truncation" if dist is None else dist
    return (
        lambda: {"from": list(a.coords), "to": list(b.coords), "height": height, "distance": value},
        lambda: str(value),
    )


def _run_torus_simplex(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    vs = [toruscomplex.canonicalize(v) for v in [parse_vector(text) for text in ns.vertices]]
    payload: dict = {
        "complex": ns.complex,
        "dim": len(vs[0]),
        "vertices": [list(v.coords) for v in vs],
    }
    if ns.complex == "surface":
        # Each pair is checked by intersection_components, as in `torus path`.
        if len(vs) < 2:
            raise ValueError("need at least two distinct vertices")
        pair_gcds = [
            [i, j, toruscomplex.intersection_components(vs[i], vs[j])]
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        ]
        payload["is_simplex"] = all(g == 1 for _, _, g in pair_gcds)
        payload["pair_minor_gcds"] = pair_gcds
    else:
        gcds = toruscomplex.finegold_minors(vs)
        facets = gcds if isinstance(gcds, list) else [gcds]
        payload["is_simplex"] = all(g == 1 for g in facets)
        payload["facet_minors_gcds" if facets is gcds else "minors_gcd"] = gcds
    return lambda: payload, lambda: "true" if payload["is_simplex"] else "false"


def _run_torus_graph(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    graph = toruscomplex.build_graph(_KIND_TAGS[ns.kind], _height(ns), n=ns.dim)
    return (
        lambda: toruscomplex.graph_to_json_dict(graph),
        lambda: toruscomplex.graph_to_dot(graph).rstrip("\n"),
    )


def _run_torus_diameter(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    graph = toruscomplex.build_graph("surface-complex-s1", _height(ns))
    diam, pair = toruscomplex.truncation_diameter(graph)
    value = "unreachable-in-truncation" if diam is None else diam
    pair_out = None if pair is None else [list(pair[0].coords), list(pair[1].coords)]
    return (
        lambda: {"height": ns.height, "diameter": value, "pair": pair_out},
        lambda: f"{value} {pair_out}",
    )


def _run_farey_neighbors(ns: argparse.Namespace) -> _Renderings:
    from . import toruscomplex
    vector = parse_vector(ns.vertex)
    height = _height(ns)
    v = toruscomplex.canonicalize(vector)
    neighbors = toruscomplex.farey_neighbors(v, height)
    return (
        lambda: {"vertex": list(v.coords), "height": height,
                 "neighbors": [list(u.coords) for u in neighbors]},
        lambda: "\n".join(u.label for u in neighbors),
    )


def _run_seifert_info(ns: argparse.Namespace) -> _Renderings:
    from . import seifert
    inv = seifert.SeifertInvariants(ns.genus, ns.b, tuple(parse_fiber(f) for f in ns.fiber))
    payload = seifert.info_json_dict(inv)
    return lambda: payload, lambda: (
        f"verdict={payload['verdict']} e={payload['euler_number']} "
        f"d={payload['d']} h1_free={payload['h1']['free_rank']} "
        f"h1_torsion={payload['h1']['torsion']} h2={payload['h2_rank']} "
        f"fibers=[{' '.join(f'{a}:{b}' for a, b in payload['fibers'])}]"
    )


def main(argv: list[str] | None = None) -> int:
    with _any_digits():  # while parsing and printing
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        as_json, as_other = ns.run(ns)
        with _building():  # the runner accepted the input
            output = json.dumps(as_json(), indent=2) if ns.format == "json" else as_other()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
