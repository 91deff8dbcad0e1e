"""Alternating decompositions.

Marking every non-alternating arc with two points and joining adjacent
marked points inside each face produces a system of disjoint simple
closed curves.  Curves become vertices of the alternating decomposition
graph, non-alternating arcs become edges, and the plane embedding of
the diagram induces a sphere embedding of each component.  Twisting
every band of that embedding recovers the Turaev genus.
"""

from turaevgenus import corpus
from turaevgenus.decompose import decompose, twisted_genus
from turaevgenus.diagram import turaev_genus_diagram

for name in ("trefoil", "9_42", "annular-link"):
    d = corpus.named_diagrams()[name]
    dec = decompose(d)
    print(f"{name}:")
    print(f"  curves: {len(dec.curves)}")
    for i, curve in enumerate(dec.curves):
        arcs = " ".join(str(mp.arc) for mp in curve)
        print(f"    curve {i} crosses arcs {arcs}")
    print(f"  graph: {dec.graph.n} vertices, {dec.graph.edge_count} edges, "
          f"{dec.graph.component_count()} component(s)")
    print(f"  edge signs: {' '.join(dec.signs) if dec.signs else '(none)'}")
    print(f"  alternating regions: {dec.r_alt}")
    print(f"  curves per region: {dec.region_curves}")
    print(f"  genus via states:            {turaev_genus_diagram(d)}")
    print(f"  genus via twisted embedding: {twisted_genus(d)}")
    print()

print("note the annular-link diagram is connected but its decomposition")
print("graph is not: its middle alternating region is an annulus, and the")
print("two curves bounding it belong to different graph components.")
