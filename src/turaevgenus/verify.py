"""Cross-oracle property sweeps.

Each suite checks one block of invariants on seeded random inputs plus
the named corpus.  A failure record carries a serialized counterexample
so a violation can be replayed; any failure is grounds for a nonzero
exit in the command-line front end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import adgraph, construct, corpus, diagram, families, ribbon
from .adgraph import AdGraph
from .decompose import decompose
from .diagram import PlanarDiagram, write_pd
from .errors import BadParametersError


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, condition: bool, dump: str):
        self.cases += 1
        if not condition:
            self.failures.append(dump)

    @property
    def ok(self) -> bool:
        """No failure, and not vacuously: at least one check ran."""
        return self.cases > 0 and not self.failures

    def minimized_failures(self) -> list[str]:
        """Failing cases smallest-first, so the lead counterexample is
        the most readable one observed."""
        return sorted(self.failures, key=len)


def _corpus_diagrams(rng: random.Random, iters: int) -> list[PlanarDiagram]:
    out = list(corpus.named_diagrams().values())
    out += [corpus.torus_2k(k) for k in (1, 2, 3, 4, 5, 6)]
    for _ in range(max(1, iters // 4)):
        out.append(corpus.random_diagram(rng, max_edges=8))
    return out


def suite_states(rng: random.Random, iters: int) -> SuiteResult:
    """State counts, split additivity, and the mirror image, which
    exchanges the all-A and all-B states and so keeps the genus and
    adequacy."""
    res = SuiteResult("diagram-states")
    diagrams = _corpus_diagrams(rng, iters)
    for d in diagrams:
        dump = write_pd(d)
        s_a, s_b = diagram.state_circle_counts(d)
        res.check(
            s_a + s_b <= d.crossing_count + 2 * d.split_components, dump
        )
        m = d.mirror()
        res.check(diagram.state_circle_counts(m) == (s_b, s_a), dump)
        g = diagram.turaev_genus_diagram(d)
        res.check(diagram.turaev_genus_diagram(m) == g, dump)
        res.check(diagram.is_adequate(m) == diagram.is_adequate(d), dump)
    for _ in range(max(1, iters // 8)):
        a, b = rng.sample(diagrams, 2)
        union = a.disjoint_union(b)
        res.check(
            diagram.turaev_genus_diagram(union)
            == diagram.turaev_genus_diagram(a) + diagram.turaev_genus_diagram(b),
            write_pd(union),
        )
    return res


def suite_connected_sum(rng: random.Random, iters: int) -> SuiteResult:
    """Genus additivity of connected sums over random arc choices."""
    res = SuiteResult("connected-sum")
    pool = _corpus_diagrams(rng, max(4, iters // 8))
    pool = [d for d in pool if d.crossing_count > 0]
    for _ in range(iters):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        a1 = rng.choice(list(d1.arc_ends))
        a2 = rng.choice(list(d2.arc_ends))
        total = diagram.connected_sum(d1, a1, d2, a2)
        res.check(
            diagram.turaev_genus_diagram(total)
            == diagram.turaev_genus_diagram(d1) + diagram.turaev_genus_diagram(d2),
            f"{write_pd(d1)}# arc {a1}\n{write_pd(d2)}# arc {a2}",
        )
    return res


def suite_insert_twist(rng: random.Random, iters: int) -> SuiteResult:
    """Twists preserve the genus and the decomposition graph."""
    res = SuiteResult("insert-twist")
    pool = [d for d in _corpus_diagrams(rng, iters) if d.crossing_count > 0]
    for _ in range(iters):
        d = rng.choice(pool)
        arc = rng.choice(list(d.arc_ends))
        twisted = diagram.insert_twist(d, arc)
        dump = f"{write_pd(d)}# twist arc {arc}"
        res.check(
            diagram.turaev_genus_diagram(twisted)
            == diagram.turaev_genus_diagram(d),
            dump,
        )
        g1 = decompose(d).graph
        g2 = decompose(twisted).graph
        res.check(
            families.isomorphic(g1, g2)[0],
            dump,
        )
        again = diagram.insert_twist(twisted, rng.choice(list(twisted.arc_ends)))
        res.check(
            diagram.turaev_genus_diagram(again) == diagram.turaev_genus_diagram(d),
            dump,
        )
    return res


def suite_ribbon(rng: random.Random, iters: int) -> SuiteResult:
    """Euler counts of flat embeddings, mirror invariance, twisted
    orientability of bipartite graphs."""
    res = SuiteResult("ribbon")
    for _ in range(iters):
        graph = corpus.random_adgraph(rng, max_edges=10)
        dump = adgraph.write_graph_file(graph)
        flat = adgraph.to_ribbon(graph, twisted=False)
        v, e = flat.vertex_count, flat.edge_count
        f = ribbon.boundary_count(flat)
        res.check(v - e + f == 2 * flat.component_count(), dump)
        mirrored = ribbon.RibbonGraph(
            tuple(tuple(reversed(rot)) for rot in flat.vertices), flat.edges
        )
        res.check(ribbon.boundary_count(mirrored) == f, dump)
        twisted = ribbon.twist_all(flat)
        res.check(ribbon.is_orientable(twisted), dump)
        res.check(ribbon.twist_all(twisted) == twisted, dump)
    return res


def suite_decompose(rng: random.Random, iters: int) -> SuiteResult:
    """Decomposition structure plus the three-way genus agreement."""
    res = SuiteResult("decompose")
    for d in _corpus_diagrams(rng, iters):
        dump = write_pd(d)
        dec = decompose(d)
        kinds = diagram.classify_arcs(d)
        non_alt = sorted(a for a, k in kinds.items() if not k.alternating)
        res.check(list(dec.edge_arcs) == non_alt, dump)
        res.check(all(d % 2 == 0 for d in dec.graph.degrees()), dump)
        # signs alternate around every curve
        for vi, rot in enumerate(dec.graph.rotations):
            for i in range(len(rot)):
                res.check(
                    dec.signs[rot[i]] != dec.signs[rot[(i + 1) % len(rot)]],
                    dump,
                )
        # curves on one alternating region lie in distinct components
        comp_of = {}
        for idx, comp in enumerate(dec.graph.components()):
            for v in comp:
                comp_of[v] = idx
        for curves in dec.region_curves:
            comps = [comp_of[c] for c in curves]
            res.check(len(set(comps)) == len(comps), dump)
        g = diagram.turaev_genus_diagram(d)
        twisted = adgraph.to_ribbon(dec.graph, twisted=True)
        res.check(ribbon.ribbon_genus(twisted) == g, dump)
        res.check(adgraph.turaev_genus_graph(dec.graph) == g, dump)
    return res


def suite_graph_recursion(rng: random.Random, iters: int) -> SuiteResult:
    """Choice independence, both branches of the parallel-pair step,
    the degree-two lemma, and the nullity bound."""
    res = SuiteResult("graph-recursion")
    for _ in range(iters):
        graph = corpus.random_adgraph(rng, max_edges=12)
        dump = adgraph.write_graph_file(graph)
        g = adgraph.turaev_genus_graph(graph)
        res.check(
            adgraph.turaev_genus_graph(
                graph, random.Random(rng.randrange(10**6))) == g,
            dump,
        )
        res.check(
            ribbon.ribbon_genus(adgraph.to_ribbon(graph, twisted=True)) == g, dump
        )
        # Lemma: edges present means a parallel pair or >= 4 degree-2 vertices
        if graph.edge_count:
            mult = graph.multiplicity()
            has_pair = any(m >= 2 for m in mult.values())
            deg2 = sum(1 for dg in graph.degrees() if dg == 2)
            res.check(has_pair or deg2 >= 4, dump)
        # delete vs contract on a separating parallel pair
        mult = graph.multiplicity()
        for (u, v), m in sorted(mult.items()):
            if m < 2:
                continue
            pair = [i for i, e in enumerate(graph.edges) if e == (u, v)][:2]
            rest = tuple(e for i, e in enumerate(graph.edges) if i not in pair)
            deleted = AdGraph(graph.n, rest)
            if deleted.component_count() == graph.component_count():
                continue
            # the pair separated u from v, so contracting it is a one-sum
            contracted = families.one_sum_components(deleted, u, v)
            gd = adgraph.turaev_genus_graph(deleted)
            gc = adgraph.turaev_genus_graph(contracted)
            res.check(gd == g and gc == g, dump)
            break
        if not any(dg == 2 for dg in graph.degrees()):
            res.check(
                3 * g >= adgraph.nullity(adgraph.simplify(graph)), dump
            )
    return res


def suite_doubled_path_moves(rng: random.Random, iters: int) -> SuiteResult:
    """Doubled path extension and contraction preserve the Euler
    characteristic of the twisted embedding, hence the genus, even when
    the intermediate graph is non-bipartite."""
    res = SuiteResult("doubled-path-moves")
    for _ in range(iters):
        graph = corpus.random_adgraph(rng, max_edges=10)
        mult = graph.multiplicity()
        pairs = sorted(k for k, m in mult.items() if m >= 2)
        if not pairs:
            continue
        dump = adgraph.write_graph_file(graph)
        base = ribbon.euler_genus(
            ribbon.twist_all(adgraph.to_ribbon(graph, twisted=False))
        )
        u, v = pairs[rng.randrange(len(pairs))]
        extended = families.doubled_path_extend(graph, u, v)
        embedded = adgraph.planar_rotations(extended)
        res.check(
            ribbon.euler_genus(adgraph.to_ribbon(embedded, twisted=True)) == base,
            dump,
        )
        back = families.doubled_path_contract(extended, extended.n - 1, u)
        res.check(families.isomorphic(back, graph)[0], dump)
    return res


def stepwise_contract(graph: AdGraph, rng: random.Random | None = None) -> AdGraph:
    """The reference for ``families.canonical_contract``: merge one site
    at a time into its lower neighbour with ``doubled_path_contract``.
    The site is the first one, or with ``rng`` one drawn by a single
    ``rng.randrange(len(sites))``."""
    while sites := families.contractible_sites(graph):
        v = sites[0] if rng is None else sites[rng.randrange(len(sites))]
        low = min(u for e in graph.edges if v in e for u in e if u != v)
        graph = families.doubled_path_contract(graph, v, low)
    return graph


def suite_families(rng: random.Random, iters: int) -> SuiteResult:
    """Canonical contraction against the stepwise reference in random
    order, and the genus-zero move generator."""
    res = SuiteResult("families")
    for _ in range(iters):
        graph = corpus.random_adgraph(rng, max_edges=12)
        dump = adgraph.write_graph_file(graph)
        contracted = families.canonical_contract(graph)
        again = families.canonical_contract(contracted)
        res.check(families.isomorphic(again, contracted)[0], dump)
        shuffled = stepwise_contract(graph, rng)
        res.check(families.isomorphic(contracted, shuffled)[0], dump)
    for seed in range(iters):
        moves = rng.randrange(0, 30)
        graph, script = families.random_genus0(moves, seed)
        res.check(adgraph.turaev_genus_graph(graph) == 0, script)
        res.check(
            families.isomorphic(families.replay_script(script), graph)[0], script
        )
    return res


def suite_construct(rng: random.Random, iters: int) -> SuiteResult:
    """Realization round trip, adequacy, and genus agreement."""
    res = SuiteResult("construct")
    for _ in range(iters):
        graph = corpus.random_adgraph(rng, max_edges=8)
        dump = adgraph.write_graph_file(graph)
        d = construct.realize_diagram(graph)
        dec = decompose(d)
        res.check(
            families.isomorphic(dec.graph, graph)[0],
            dump,
        )
        res.check(diagram.is_adequate(d), dump)
        res.check(
            diagram.turaev_genus_diagram(d)
            == adgraph.turaev_genus_graph(graph),
            dump,
        )
    return res


def suite_jones(rng: random.Random, iters: int) -> SuiteResult:
    """Span inequalities on the knot corpus, with equality for reduced
    alternating diagrams."""
    res = SuiteResult("jones-span")
    knots = corpus.alternating_knot_corpus()
    for name, d in knots:
        span = diagram.bracket_span(d)
        g = diagram.turaev_genus_diagram(d)
        dec = decompose(d)
        c = d.crossing_count
        res.check(span + g <= c, name)
        res.check(span - dec.r_alt + dec.graph.edge_count // 2 + 1 <= c, name)
        res.check(span == c, name)  # reduced alternating
    d = corpus.nine_42()
    span = diagram.bracket_span(d)
    dec = decompose(d)
    res.check(span + diagram.turaev_genus_diagram(d) <= d.crossing_count, "9_42")
    res.check(
        span - dec.r_alt + dec.graph.edge_count // 2 + 1 <= d.crossing_count,
        "9_42",
    )
    return res


ALL_SUITES = (
    suite_states,
    suite_connected_sum,
    suite_insert_twist,
    suite_ribbon,
    suite_decompose,
    suite_graph_recursion,
    suite_doubled_path_moves,
    suite_families,
    suite_construct,
    suite_jones,
)


def run_all(iters: int = 50, seed: int = 0) -> list[SuiteResult]:
    if iters < 1:
        raise BadParametersError(f"iters must be at least 1, got {iters}")
    results = []
    for fn in ALL_SUITES:
        # string seeding is hash-randomization independent
        rng = random.Random(f"{seed}:{fn.__name__}")
        results.append(fn(rng, iters))
    return results
