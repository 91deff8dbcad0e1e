"""Realizing graphs as adequate diagrams, and the round trip.

Every planar bipartite graph with even degrees is the alternating
decomposition graph of some link diagram, and the diagram can be chosen
adequate.  Each vertex becomes a wheel tangle (a circle strand bitten by
radial strands); edges become the non-alternating arcs.  Decomposing the
realized diagram recovers the graph, and the diagram's Turaev genus
equals the graph's.
"""

from turaevgenus.adgraph import turaev_genus_graph, validate_adg
from turaevgenus.construct import embed_planar, realize_diagram
from turaevgenus.decompose import decompose
from turaevgenus.diagram import is_adequate, turaev_genus_diagram, write_pd
from turaevgenus.families import FamilySpec, isomorphic, make_family

specs = [
    FamilySpec("DoubledCycle", (2,)),
    FamilySpec("DoubledCycle", (6,)),
    FamilySpec("Theta", (1, 1, 3)),
    FamilySpec("K4pq", (2, 2)),
    FamilySpec("K4TwoSum", (2, 2)),
    FamilySpec("C4Legs", (1, 0, 2, 0)),
    FamilySpec("DoubledTree", (0, 0, 1, 1)),
]

for spec in specs:
    graph = make_family(spec)
    validated = embed_planar(validate_adg(graph))
    diagram = realize_diagram(validated)
    back = decompose(diagram).graph
    round_trip = isomorphic(back, graph)[0]
    print(f"{spec.tag}{spec.params}: v = {graph.n}, e = {graph.edge_count}"
          f" -> diagram with {diagram.crossing_count} crossings")
    print(f"  genus (graph) = {turaev_genus_graph(validated)},"
          f" genus (diagram) = {turaev_genus_diagram(diagram)},"
          f" adequate = {is_adequate(diagram)},"
          f" round trip = {round_trip}")

print()
print("PD code of the realized doubled two-cycle:")
c22 = make_family(FamilySpec("DoubledCycle", (2,)))
print(write_pd(realize_diagram(embed_planar(validate_adg(c22)))))
