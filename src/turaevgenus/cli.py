"""Command-line front end.

Subcommands: genus-d, decompose, genus-g, classify, realize, census,
bracket, verify.  Identical configuration and seed produce byte-identical
output.  Exit codes: 0 success, 1 input errors, 2 usage errors, 3
property violation in ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import adgraph, census as census_mod, construct, families, verify
from .decompose import decompose
from .diagram import (
    bracket_span,
    jones_polynomial,
    parse_pd,
    require_connected,
    turaev_genus_diagram,
    write_pd,
)
from .errors import NotUtf8Error, TuraevError, integer

SCHEMA_VERSION = 1


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(path, exc.start) from None


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_genus_d(args) -> int:
    diagram = parse_pd(_read(args.file))
    g = turaev_genus_diagram(diagram)
    c, k = diagram.crossing_count, diagram.split_components
    # g = (2k + c - sA - sB) / 2 holds exactly, so sA + sB needs no
    # second pass over the two states
    circles = 2 * k + c - 2 * g if c else 0
    print(f"g_T = {g}, c = {c}, sA+sB = {circles}, k = {k}")
    return 0


def cmd_decompose(args) -> int:
    diagram = parse_pd(_read(args.file))
    dec = decompose(diagram)
    curves = [[mp.arc for mp in cycle] for cycle in dec.curves]
    payload = {
        "curves": curves,
        "graph": {
            "vertices": dec.graph.n,
            "edges": [[u + 1, v + 1] for u, v in dec.graph.edges],
            "rotations": [list(r) for r in dec.graph.rotations],
        },
        "edge_arcs": list(dec.edge_arcs),
        "signs": list(dec.signs),
        "r_alt": dec.r_alt,
        "genus": turaev_genus_diagram(diagram),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"curves: {len(curves)}")
        for i, curve in enumerate(curves):
            print(f"  curve {i}: arcs {' '.join(map(str, curve))}")
        print(f"graph: {dec.graph.n} vertices, {dec.graph.edge_count} edges")
        for (u, v), sign in zip(dec.graph.edges, dec.signs):
            print(f"  edge {u + 1} {v + 1} sign {sign}")
        print(f"r_alt = {payload['r_alt']}")
        print(f"g_T = {payload['genus']}")
    return 0


def cmd_genus_g(args) -> int:
    graph = adgraph.parse_graph_file(_read(args.file))
    print(f"g_T = {adgraph.turaev_genus_graph(graph)}")
    return 0


def cmd_classify(args) -> int:
    graph = adgraph.parse_graph_file(_read(args.file))
    info = families.classify_genus(graph)
    payload = {
        "genus": info.genus,
        "reduced": info.is_reduced,
        "family": info.family,
        "parameters": list(info.parameters),
    }
    if args.json:
        _emit_json(payload)
    else:
        family = info.family or "(unrecognized)"
        print(
            f"g_T = {info.genus}, reduced = {str(info.is_reduced).lower()}, "
            f"family = {family}, parameters = {info.parameters}"
        )
    return 0


def cmd_realize(args) -> int:
    graph = adgraph.parse_graph_file(_read(args.file))
    diagram = construct.realize_diagram(graph)
    text = write_pd(diagram)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {diagram.crossing_count} crossings to {args.output}")
    return 0


def cmd_census(args) -> int:
    max_v = max(2, args.max_edges // 2) if args.reduced else max(1, args.max_edges)
    filt = census_mod.CensusFilter(
        max_vertices=max_v,
        max_edges=args.max_edges,
        genus_equals=args.genus,
    )
    if args.reduced:
        classes = census_mod.census(args.genus, filt)
        if args.json:
            _emit_json(
                {
                    "genus": args.genus,
                    "max_edges": args.max_edges,
                    "classes": [
                        {
                            "family": cls.family,
                            "parameters": list(cls.parameters),
                            "count": cls.count,
                            "representative": {
                                "vertices": cls.representative.n,
                                "edges": [
                                    [u + 1, v + 1]
                                    for u, v in cls.representative.edges
                                ],
                            },
                        }
                        for cls in classes
                    ],
                }
            )
        else:
            print(
                f"genus {args.genus}, maxEdges {args.max_edges}: "
                f"{len(classes)} doubled-path class(es)"
            )
            for cls in classes:
                rep = cls.representative
                print(
                    f"  {cls.family} {cls.parameters}: {cls.count} member(s), "
                    f"representative v={rep.n} e={rep.edge_count}"
                )
    else:
        graphs = census_mod.enumerate_adgs(filt)
        if args.json:
            _emit_json(
                {
                    "genus": args.genus,
                    "max_edges": args.max_edges,
                    "graphs": [
                        {
                            "vertices": g.n,
                            "edges": [[u + 1, v + 1] for u, v in g.edges],
                        }
                        for g in graphs
                    ],
                }
            )
        else:
            print(
                f"genus {args.genus}, maxEdges {args.max_edges}: "
                f"{len(graphs)} graph(s)"
            )
            for g in graphs:
                print(f"  v={g.n} e={g.edge_count} edges={list(g.edges)}")
    return 0


def cmd_bracket(args) -> int:
    diagram = parse_pd(_read(args.file))
    require_connected(diagram)
    poly = jones_polynomial(diagram)
    span = bracket_span(diagram, poly=poly)
    print(f"span_t = {span}")
    print(f"V(A) = {poly}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(iters=args.iters, seed=args.seed)
    bad = False
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{res.name}: {res.cases} checks {status}")
        if not res.ok:
            bad = True
    if bad:
        print(f"replay: adg verify --seed {args.seed} --iters {args.iters}",
              file=sys.stderr)
        print("--- counterexamples ---", file=sys.stderr)
        for res in results:
            if not res.cases:
                print(f"[{res.name}]\nno checks ran", file=sys.stderr)
            for dump in res.minimized_failures()[:3]:
                print(f"[{res.name}]\n{dump}", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adg",
        description="Turaev genus of link diagrams and decomposition graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus-d", help="Turaev genus of a PD diagram")
    p.add_argument("file")
    p.set_defaults(fn=cmd_genus_d)

    p = sub.add_parser("decompose", help="alternating decomposition of a diagram")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("genus-g", help="Turaev genus of a graph file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_genus_g)

    p = sub.add_parser("classify", help="classify a decomposition graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("realize", help="realize a graph as a diagram")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("census", help="census of small decomposition graphs")
    p.add_argument("--genus", type=integer, required=True)
    p.add_argument("--max-edges", type=integer, required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("bracket", help="Jones polynomial span of a diagram")
    p.add_argument("file")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("verify", help="run the cross-oracle property sweep")
    p.add_argument("--iters", type=integer, default=50)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, TuraevError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
