"""The four workloads: seeded inputs, the timed calls, and their checks.

An item is one unit of output, fixed by the inputs: one graph, one
diagram or one census query.  ``build(name, seed)`` makes a workload's
items; every run repeats the same list in whole rounds.  An item's
``call`` is the sequence of library calls that the matching ``adg``
subcommand makes, and returns plain data for ``check``.  ``prepare``
runs before each timed call and is not timed.

The calls look the library functions up on their modules at call time,
so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

import checks
import graphs
from graphs import Graph

from turaevgenus import adgraph, census, construct, corpus, diagram, families, ribbon

# ``turaevgenus.decompose`` is the function; the module is reached by name
decompose_mod = importlib.import_module("turaevgenus.decompose")

@dataclass
class Item:
    name: str
    call: Callable[[], dict]
    check: Callable[[checks.Checker, dict], None]
    prepare: Callable[[], None] | None = None


# -- shared call sequences ---------------------------------------------------------

def _realize_text(text: str) -> str:
    """``adg realize``: graph text to PD text."""
    g = adgraph.parse_graph_file(text)
    embedded = construct.embed_planar(adgraph.validate_adg(g))
    return diagram.write_pd(construct.realize_diagram(embedded))


def _ribbon_route(graph) -> int:
    return ribbon.ribbon_genus(adgraph.to_ribbon(graph, twisted=True))


def _diagram_routes(pd_text: str) -> dict:
    """``adg genus-d`` and ``adg decompose``, the ribbon and recursion
    routes on the decomposition graph, and adequacy."""
    d = diagram.parse_pd(pd_text)
    dec = decompose_mod.decompose(d)
    return {
        "genera": {
            "state": diagram.turaev_genus_diagram(d),
            "ribbon": _ribbon_route(dec.graph),
            "recursion": adgraph.turaev_genus_graph(dec.graph),
        },
        "adequate": diagram.is_adequate(d),
        "dec": (dec.graph.n, dec.graph.edges),
        "pd": d.crossings,
    }


def _graph_routes(text: str, classify: bool) -> dict:
    """``adg genus-g``, the ribbon route of the planar embedding and,
    when asked, ``adg classify``."""
    g = adgraph.parse_graph_file(text)
    validated = adgraph.validate_adg(g)
    embedded = construct.embed_planar(validated)
    out = {"genera": {
        "recursion": adgraph.turaev_genus_graph(validated),
        "ribbon": _ribbon_route(embedded),
    }}
    if classify:
        info = families.classify_genus(g)
        out["genera"]["classify"] = info.genus
        out["family"] = (info.family, tuple(info.parameters))
    return out


# -- roundtrip-small ----------------------------------------------------------------

def _roundtrip_inputs(rng: random.Random) -> list[tuple[str, Graph]]:
    """220 graphs of 4 to 14 edges in strata of fixed edge count; the
    seed picks the shapes and labels inside each stratum, so the work per
    round hardly depends on it."""
    out: list[tuple[str, Graph]] = []
    for edges in range(4, 15, 2):
        out += [(f"grid{edges}e", graphs.grid_graph_with_edges(rng, edges))
                for _ in range(20)]
    for length in (2, 4, 6):
        out += [(f"cycle{length}", graphs.doubled_cycle(length))] * 8
    for ijk in ((1, 1, 1), (1, 1, 3), (2, 2, 2), (1, 3, 3)):
        out += [(f"theta{ijk}", graphs.doubled_theta(*ijk))] * 6
    out += [("k4pq(2,2)", graphs.k4_doubled_paths(2, 2))] * 8
    for vertices in range(3, 8):
        out += [(f"tree{vertices}",
                 graphs.doubled_tree(graphs.random_parents(rng, vertices)))
                for _ in range(4)]
    for _ in range(8):
        out.append(("grid6e+vertex", graphs.disjoint_union(
            graphs.grid_graph_with_edges(rng, 6), graphs.isolated())))
        a, b = graphs.doubled_cycle(2), graphs.grid_graph_with_edges(rng, 4)
        out.append(("cycle2.grid4e",
                    graphs.one_sum(a, b, rng.randrange(a.n), rng.randrange(b.n))))
        out.append(("cycle4+tree3", graphs.disjoint_union(
            graphs.doubled_cycle(4), graphs.doubled_tree(graphs.random_parents(rng, 3)))))
    return [(name, graphs.relabeled(rng, g)) for name, g in out]


def _roundtrip_call(text: str) -> dict:
    g = adgraph.parse_graph_file(text)
    validated = adgraph.validate_adg(g)
    embedded = construct.embed_planar(validated)
    realized = construct.realize_diagram(embedded)
    d = diagram.parse_pd(diagram.write_pd(realized))
    dec = decompose_mod.decompose(d)
    info = families.classify_genus(g)
    return {
        "dec": (dec.graph.n, dec.graph.edges),
        "genera": {
            "state": diagram.turaev_genus_diagram(d),
            "ribbon": _ribbon_route(dec.graph),
            "recursion": adgraph.turaev_genus_graph(validated),
            "classify": info.genus,
        },
        "adequate": diagram.is_adequate(d),
        "pd": d.crossings,
    }


def roundtrip_small(seed: int) -> list[Item]:
    items = []
    for i, (kind, g) in enumerate(_roundtrip_inputs(random.Random(seed))):
        name = f"{i}:{kind}"
        text = graphs.graph_text(g)
        items.append(Item(
            name,
            lambda text=text: _roundtrip_call(text),
            lambda ck, out, name=name, g=g: checks.check_roundtrip(ck, name, g, out),
        ))
    return items


# -- large-inputs ---------------------------------------------------------------------

def large_inputs(seed: int) -> list[Item]:
    """Family graphs of fixed size; the seed picks tree shapes and labels.

    Diagrams (realized here, at set-up) of about 400 to 800 crossings go
    through the three genus routes and adequacy; graph files of about
    1,000 to 1,600 edges through validation, embedding, the recursion
    and the ribbon route; graphs of at most about 150 edges also through
    ``classify_genus``.
    """
    rng = random.Random(seed)
    tree = lambda vertices: graphs.doubled_tree(graphs.random_parents(rng, vertices))
    as_diagrams = [
        ("cycle200", graphs.doubled_cycle(200)),
        ("theta(34,34,32)", graphs.doubled_theta(34, 34, 32)),
        ("k4pq(48,48)", graphs.k4_doubled_paths(48, 48)),
        ("tree100", tree(100)),
        ("cycle50+theta(10,10,10)+tree30", graphs.disjoint_union(
            graphs.doubled_cycle(50), graphs.doubled_theta(10, 10, 10), tree(30))),
    ]
    as_graphs = [
        ("cycle800", graphs.doubled_cycle(800), None),
        ("theta(166,166,166)", graphs.doubled_theta(166, 166, 166), None),
        ("k4pq(250,250)", graphs.k4_doubled_paths(250, 250), None),
        ("tree500", tree(500), None),
        ("cycle60", graphs.doubled_cycle(60), ("doubled-even-cycle", (60,))),
        ("theta(20,20,22)", graphs.doubled_theta(20, 20, 22),
         ("doubled-theta", (20, 20, 22))),
        ("k4pq(30,30)", graphs.k4_doubled_paths(30, 30),
         ("k4-doubled-paths", (30, 30))),
        ("tree70", tree(70), None),
    ]
    items = []
    for kind, g in as_diagrams:
        g = graphs.relabeled(rng, g)
        pd_text = _realize_text(graphs.graph_text(g))
        name = f"diagram:{kind}"
        items.append(Item(
            name,
            lambda pd_text=pd_text: _diagram_routes(pd_text),
            lambda ck, out, name=name, g=g: checks.check_large(ck, name, g, out),
        ))
    for kind, g, family in as_graphs:
        g = graphs.relabeled(rng, g)
        text = graphs.graph_text(g)
        classify = len(g.edges) <= 150
        name = f"graph:{kind}"
        items.append(Item(
            name,
            lambda text=text, classify=classify: _graph_routes(text, classify),
            lambda ck, out, name=name, g=g, family=family: checks.check_large(
                ck, name, g, out, family),
        ))
    return items


# -- census ----------------------------------------------------------------------------

#: copied from the program's output at the commit that added this
#: benchmark; ``refcounts.py`` regenerates them.  The only checks
#: against the program's own earlier output.
ENUMERATE_10_10_GRAPHS = 1100
GENUS3_16_CLASSES = 27


def _clear_census_caches() -> None:
    """Queries are timed cold: the module caches start empty."""
    for name in ("_SIMPLE_CACHE", "_ATOM_CACHE"):
        cache = getattr(census, name, None)
        if cache is not None:
            cache.clear()


def _enumerate_call() -> dict:
    found = census.enumerate_adgs(census.CensusFilter(max_vertices=10, max_edges=10))
    return {"graphs": [(g.n, g.edges) for g in found]}


def _census_call(genus: int, max_edges: int) -> dict:
    """``adg census --genus G --max-edges E --reduced``."""
    filt = census.CensusFilter(
        max_vertices=max(2, max_edges // 2), max_edges=max_edges,
        genus_equals=genus, allow_isolated=False,
    )
    return {"classes": [
        {
            "family": cls.family,
            "parameters": tuple(cls.parameters),
            "contracted": (cls.contracted.n, cls.contracted.edges),
            "members": [(g.n, g.edges) for g in cls.members],
        }
        for cls in census.census(genus, filt)
    ]}


def _check_enumerate(ck: checks.Checker, out: dict) -> None:
    found = out["graphs"]
    ck.check(len(found) == ENUMERATE_10_10_GRAPHS,
             f"enumerate(10,10): {len(found)} graphs, reference {ENUMERATE_10_10_GRAPHS}")
    checks.check_census_graphs(ck, "enumerate(10,10)", found, None, False)


def _check_census(ck: checks.Checker, genus: int, out: dict) -> None:
    name = f"census(genus {genus}, 16 edges)"
    classes = out["classes"]
    members = [m for cls in classes for m in cls["members"]]
    checks.check_census_graphs(ck, name, members, genus, True)
    if genus == 2:
        checks.check_genus2_classes(ck, name, classes)
    else:
        ck.check(len(classes) == GENUS3_16_CLASSES,
                 f"{name}: {len(classes)} classes, reference {GENUS3_16_CLASSES}")


def census_queries(seed: int) -> list[Item]:
    """The three queries are fixed; the seed only orders them."""
    items = [
        Item("enumerate(10,10)", _enumerate_call, _check_enumerate),
        Item("census(2,16)", lambda: _census_call(2, 16),
             lambda ck, out: _check_census(ck, 2, out)),
        Item("census(3,16)", lambda: _census_call(3, 16),
             lambda ck, out: _check_census(ck, 3, out)),
    ]
    random.Random(seed).shuffle(items)
    for item in items:
        item.prepare = _clear_census_caches
    return items


# -- bracket -----------------------------------------------------------------------------

def _bracket_call(pd_text: str) -> dict:
    """``adg bracket``: the Jones polynomial, then the span."""
    d = diagram.parse_pd(pd_text)
    poly = diagram.jones_polynomial(d)
    span = diagram.bracket_span(d)
    return {"jones": dict(poly.coeffs), "span": span}


#: realized diagrams per graph edge count; a connected graph with E edges
#: realizes as 2E crossings
REALIZED_PER_EDGES = {2: 6, 4: 9, 6: 9}


def bracket(seed: int) -> list[Item]:
    """``alternating_knot_corpus(16)``, 9_42, and seeded connected realized
    diagrams of 4 to 12 crossings, shuffled by the seed."""
    rng = random.Random(seed)
    inputs: list[tuple[str, str, tuple]] = []
    for name, d in corpus.alternating_knot_corpus(16):
        kind = name if name.startswith("torus-2-") and "#" not in name else "alternating"
        inputs.append((name, kind, d.crossings))
    inputs.append(("9_42", "9_42", graphs.NINE_42_PD))
    for edge_count, count in REALIZED_PER_EDGES.items():
        for j in range(count):
            g = graphs.relabeled(rng, graphs.grid_graph_with_edges(rng, edge_count))
            d = diagram.parse_pd(_realize_text(graphs.graph_text(g)))
            inputs.append((f"realized{edge_count}.{j}", "realized", d.crossings))
    rng.shuffle(inputs)
    items = []
    for name, kind, pd in inputs:
        pd_text = "\n".join("X " + " ".join(map(str, x)) for x in pd) + "\n"
        items.append(Item(
            name,
            lambda pd_text=pd_text: _bracket_call(pd_text),
            lambda ck, out, name=name, kind=kind, pd=pd: checks.check_bracket(
                ck, name, kind, pd, out),
        ))
    return items


#: workload name -> item builder, in the order BENCHMARK.json lists them
BUILDERS = {
    "roundtrip-small": roundtrip_small,
    "large-inputs": large_inputs,
    "census": census_queries,
    "bracket": bracket,
}


def build(name: str, seed: int) -> list[Item]:
    return BUILDERS[name](seed)
