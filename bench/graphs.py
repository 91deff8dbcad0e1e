"""The benchmark's own graph builders and seeded generators.

Nothing here imports the program: inputs are built from plain edge
lists so that a change to the library cannot change what is measured.
A graph is a ``Graph(n, edges, genus)`` with 0-based vertices, one edge
entry per parallel copy, and ``genus`` its Turaev genus by closed form
where the builder knows it (``None`` otherwise).

Closed forms used by the checks: a doubled even cycle has genus 1, a
doubled theta and K4 with two non-adjacent edges replaced by doubled
paths have genus 2, a doubled tree has genus 0, and disjoint unions add.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Graph(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    genus: int | None


def _doubled(edges):
    out = []
    for u, v in edges:
        out += [(u, v), (u, v)]
    return out


def _path(edges, n, u, v, length):
    """Append a path of ``length`` edges from u to v with fresh interior
    vertices starting at ``n``; returns the next free vertex."""
    prev = u
    for step in range(length):
        nxt = v if step == length - 1 else n
        if nxt == n:
            n += 1
        edges.append((prev, nxt))
        prev = nxt
    return n


def doubled_cycle(length: int) -> Graph:
    """Doubled cycle; bipartite (a valid input) when ``length`` is even."""
    edges = _doubled((i, (i + 1) % length) for i in range(length))
    return Graph(length, tuple(edges), 1)


def doubled_theta(i: int, j: int, k: int) -> Graph:
    """Two junctions joined by three doubled paths of lengths i, j, k;
    bipartite when the three lengths have one parity."""
    path_edges: list[tuple[int, int]] = []
    n = 2
    for length in (i, j, k):
        n = _path(path_edges, n, 0, 1, length)
    return Graph(n, tuple(_doubled(path_edges)), 2)


def k4_doubled_paths(p: int, q: int) -> Graph:
    """K4 on 0..3 with edges 01 and 23 replaced by doubled paths of
    lengths p and q; bipartite when both are even."""
    path_edges: list[tuple[int, int]] = []
    n = _path(path_edges, 4, 0, 1, p)
    n = _path(path_edges, n, 2, 3, q)
    single = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return Graph(n, tuple(single + _doubled(path_edges)), 2)


def doubled_tree(parents) -> Graph:
    """Vertex i+1 hangs under parents[i]; every edge doubled."""
    edges = _doubled((p, i) for i, p in enumerate(parents, start=1))
    return Graph(len(parents) + 1, tuple(edges), 0)


def random_parents(rng: random.Random, vertices: int) -> list[int]:
    return [rng.randrange(i) for i in range(1, vertices)]


def isolated() -> Graph:
    """A single vertex."""
    return Graph(1, (), 0)


def disjoint_union(*parts: Graph) -> Graph:
    n, edges, genus = 0, [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
        genus = None if genus is None or part.genus is None else genus + part.genus
    return Graph(n, tuple(edges), genus)


def one_sum(a: Graph, b: Graph, va: int, vb: int) -> Graph:
    """Identify vertex ``va`` of ``a`` with vertex ``vb`` of ``b``."""
    relabel = {}
    nxt = a.n
    for w in range(b.n):
        if w == vb:
            relabel[w] = va
        else:
            relabel[w] = nxt
            nxt += 1
    edges = list(a.edges) + [(relabel[u], relabel[v]) for u, v in b.edges]
    return Graph(nxt, tuple(edges), None)


def grid_graph(rng: random.Random, cells: int) -> Graph:
    """A random even multigraph on a connected set of grid cells.

    The cells grow from the origin by random steps; the growth tree plus
    a random subset of the other grid adjacencies is the simple graph,
    so it is planar and bipartite.  Non-tree edges get multiplicity 1
    or 2 at random, and each tree edge then gets the multiplicity that
    makes its child's degree even, leaves first; the root comes out even
    because the degree sum is.
    """
    pos = [(0, 0)]
    index = {(0, 0): 0}
    tree = []
    while len(pos) < cells:
        x, y = pos[rng.randrange(len(pos))]
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        cell = (x + dx, y + dy)
        if cell in index:
            continue
        index[cell] = len(pos)
        tree.append((index[(x, y)], len(pos)))
        pos.append(cell)
    tree_set = set(tree)
    extra = []
    for (x, y), i in index.items():
        for cell in ((x + 1, y), (x, y + 1)):
            j = index.get(cell)
            if j is not None and (i, j) not in tree_set and (j, i) not in tree_set:
                if rng.random() < 0.5:
                    extra.append((i, j))
    degree = [0] * cells
    edges = []
    for u, v in extra:
        m = rng.choice((1, 2))
        edges += [(u, v)] * m
        degree[u] += m
        degree[v] += m
    for parent, child in reversed(tree):
        m = 1 if degree[child] % 2 else 2
        edges += [(parent, child)] * m
        degree[parent] += m
        degree[child] += m
    return Graph(cells, tuple(edges), None)


def grid_graph_with_edges(rng: random.Random, edge_count: int) -> Graph:
    """A connected ``grid_graph`` with exactly ``edge_count`` edges.

    Each side of a bipartite even graph has an even degree sum equal to
    the edge count, so ``edge_count`` must be even.
    """
    if edge_count < 2 or edge_count % 2:
        raise ValueError("a bipartite even multigraph has an even edge count >= 2")
    while True:
        g = grid_graph(rng, rng.randint(2, edge_count))
        if len(g.edges) == edge_count:
            return g


def relabeled(rng: random.Random, g: Graph) -> Graph:
    """Random vertex labels and edge order; the graph is unchanged up to
    isomorphism, so every closed form still holds."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges), g.genus)


def graph_text(g: Graph) -> str:
    """The program's graph file format: ``v N`` then ``e i j`` lines."""
    lines = [f"v {g.n}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def degree_multiset(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg)


# -- Jones polynomials known in closed form or from tables ---------------------

def torus_knot_jones(k: int) -> dict[int, int]:
    """Jones' formula for the (2, k) torus knot, k odd:
    V = t^((k-1)/2) (1 - t^3 - t^(k+1) + t^(k+2)) / (1 - t^2),
    as a map from t-exponent to coefficient."""
    num = {0: 1, 3: -1, k + 1: -1, k + 2: 1}
    # divide by 1 - t^2, lowest degree first
    quotient: dict[int, int] = {}
    rem = dict(num)
    for e in range(0, k + 3):
        c = rem.get(e, 0)
        if c:
            quotient[e] = c
            rem[e + 2] = rem.get(e + 2, 0) + c
            rem[e] = 0
    if any(rem.values()):
        raise ValueError(f"(2,{k}) torus formula did not divide evenly")
    shift = (k - 1) // 2
    return {e + shift: c for e, c in quotient.items() if c}


#: a nine-crossing PD code of the knot 9_42: two alternating tangles
#: joined by four non-alternating arcs
NINE_42_PD = (
    (2, 16, 3, 15), (16, 4, 17, 3), (14, 2, 15, 1), (17, 10, 18, 11),
    (11, 18, 12, 1), (4, 9, 5, 10), (12, 8, 13, 7), (6, 14, 7, 13), (8, 5, 9, 6),
)

#: tabulated Jones polynomial of 9_42 (t-exponent -> coefficient)
NINE_42_JONES = {-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1}
