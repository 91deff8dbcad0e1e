"""Backtracking multigraph isomorphism: the slow oracle that the
canonical-form ``families.isomorphic`` is checked against.

It shares no code with the canonical form.  It rejects on the sorted
per-vertex multiplicity lists and on Weisfeiler-Lehman colour classes,
then extends a partial map vertex by vertex, checking multiplicities to
the vertices already mapped.  The same backtracking lists every
isomorphism, so every automorphism of a graph.
"""

from collections.abc import Iterator

from turaevgenus.adgraph import AdGraph


def _mult_adj(graph: AdGraph) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [dict() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj


def _wl_colors(adj: list[dict[int, int]]) -> list[int]:
    """Weisfeiler-Lehman refinement with edge multiplicities."""
    n = len(adj)
    colors = [sum(adj[v].values()) for v in range(n)]
    for _ in range(n):
        sigs = [
            (colors[v], tuple(sorted((m, colors[w]) for w, m in adj[v].items())))
            for v in range(n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        nxt = [table[s] for s in sigs]
        if nxt == colors:
            break
        colors = nxt
    return colors


def _profile(adj: list[dict[int, int]]) -> list[list[int]]:
    """Sorted per-vertex multiplicity lists: a cheap invariant."""
    return sorted(sorted(a.values()) for a in adj)


def find_isomorphism(g1: AdGraph, g2: AdGraph) -> list[int] | None:
    """A map ``m`` with ``g1.relabeled(m)`` equal to ``g2`` as a
    multigraph, or None when there is none."""
    return next(isomorphisms(g1, g2), None)


def isomorphisms(g1: AdGraph, g2: AdGraph) -> Iterator[list[int]]:
    """Every map ``m`` with ``g1.relabeled(m)`` equal to ``g2`` as a
    multigraph, each yielded as a fresh list."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return
    adj1, adj2 = _mult_adj(g1), _mult_adj(g2)
    if _profile(adj1) != _profile(adj2):
        return
    col1, col2 = _wl_colors(adj1), _wl_colors(adj2)
    if sorted(col1) != sorted(col2):
        return
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(col2):
        by_color.setdefault(c, []).append(v)
    # map rare colors first, preferring vertices attached to mapped ones
    order = sorted(range(g1.n), key=lambda v: (len(by_color[col1[v]]), v))
    ordered: list[int] = []
    pending = set(order)
    while pending:
        anchored = [v for v in order if v in pending and any(
            w not in pending for w in adj1[v]
        )]
        pick = anchored[0] if anchored else next(v for v in order if v in pending)
        ordered.append(pick)
        pending.discard(pick)
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def extend(i: int) -> Iterator[list[int]]:
        if i == len(ordered):
            yield mapping[:]
            return
        v = ordered[i]
        for w in by_color[col1[v]]:
            if used[w]:
                continue
            ok = True
            for x, m in adj1[v].items():
                if mapping[x] >= 0 and adj2[w].get(mapping[x], 0) != m:
                    ok = False
                    break
            if ok and sum(adj2[w].values()) == sum(adj1[v].values()):
                mapping[v] = w
                used[w] = True
                yield from extend(i + 1)
                mapping[v] = -1
                used[w] = False

    yield from extend(0)
