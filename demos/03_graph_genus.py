"""The recursive genus algorithm on abstract decomposition graphs.

Isolated vertices contribute nothing; contracting the two edges at a
degree-two vertex preserves genus; deleting a parallel pair adds one
when the graph stays connected and nothing when it splits.  A graph
with edges but no degree-two vertex always has a parallel pair, so the
recursion never gets stuck, and its value does not depend on the order
of choices.
"""

import random

from turaevgenus.adgraph import (
    AdGraph,
    nullity,
    simplify,
    turaev_genus_graph,
)
from turaevgenus.families import doubled_cycle, k4_doubled_paths

# doubled even cycles all have genus one, independent of length;
# ``turaev_genus_graph`` validates a plain graph before it recurses
for k in (2, 4, 6, 12):
    print(f"doubled cycle of length {k}: genus {turaev_genus_graph(doubled_cycle(k))}")

# a fourteen-vertex graph built from two hubs and four doubled chains;
# the recursion peels four parallel pairs (one per chain), contracts the
# leftover degree-two vertices, and lands on a doubled two-cycle
chains = [(2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13)]
singles = [
    (0, 2), (2, 5), (5, 1), (1, 7), (7, 4), (4, 0),
    (0, 8), (8, 11), (11, 1), (1, 13), (13, 10), (10, 0),
]
doubles = [e for o, m, i in chains for e in ((o, m), (o, m), (m, i), (m, i))]
big = AdGraph(14, tuple(singles + doubles))
print(f"\nhub-and-chains graph: v = {big.n}, e = {big.edge_count}")
print("genus:", turaev_genus_graph(big))
print("same value under randomized choices:",
      {turaev_genus_graph(big, random.Random(seed)) for seed in range(6)})
print("nullity of its simplification:", nullity(simplify(big)),
      "<= 3 * genus =", 3 * turaev_genus_graph(big))

k4 = k4_doubled_paths(2, 2)
print(f"\nK4 with two subdivided doubled paths: genus "
      f"{turaev_genus_graph(k4)}")
