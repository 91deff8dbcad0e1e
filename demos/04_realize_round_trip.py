"""Realizing graphs as adequate diagrams, and the round trip.

Every planar bipartite graph with even degrees is the alternating
decomposition graph of some link diagram, and the diagram can be chosen
adequate.  Each vertex becomes a wheel tangle (a circle strand bitten by
radial strands); edges become the non-alternating arcs.  Decomposing the
realized diagram recovers the graph, and the diagram's Turaev genus
equals the graph's.
"""

from turaevgenus.adgraph import turaev_genus_graph
from turaevgenus.construct import realize_diagram
from turaevgenus.decompose import decompose
from turaevgenus.diagram import is_adequate, turaev_genus_diagram, write_pd
from turaevgenus.families import (
    c4_legs,
    doubled_cycle,
    doubled_theta,
    doubled_tree,
    isomorphic,
    k4_doubled_paths,
    k4_two_sum,
)

graphs = {
    "doubled_cycle(2)": doubled_cycle(2),
    "doubled_cycle(6)": doubled_cycle(6),
    "doubled_theta(1, 1, 3)": doubled_theta(1, 1, 3),
    "k4_doubled_paths(2, 2)": k4_doubled_paths(2, 2),
    "k4_two_sum(2, 2)": k4_two_sum(2, 2),
    "c4_legs(1, 0, 2, 0)": c4_legs(1, 0, 2, 0),
    "doubled_tree((0, 0, 1, 1))": doubled_tree((0, 0, 1, 1)),
}

# realize_diagram validates and embeds each plain family graph itself
for name, graph in graphs.items():
    diagram = realize_diagram(graph)
    back = decompose(diagram).graph
    round_trip = isomorphic(back, graph)[0]
    print(f"{name}: v = {graph.n}, e = {graph.edge_count}"
          f" -> diagram with {diagram.crossing_count} crossings")
    print(f"  genus (graph) = {turaev_genus_graph(graph)},"
          f" genus (diagram) = {turaev_genus_diagram(diagram)},"
          f" adequate = {is_adequate(diagram)},"
          f" round trip = {round_trip}")

print()
print("PD code of the realized doubled two-cycle:")
print(write_pd(realize_diagram(doubled_cycle(2))))
