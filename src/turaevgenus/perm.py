"""The primitives on flat integer arrays, and one orbit closure.

Every count the genus routes take is an orbit count on half-edges:
faces are orbits of rotate∘partner, state circles are orbits of the
group generated by two involutions (partner and the smoothing), link
components are orbits of partner∘opposite (once per orientation), and
ribbon boundaries are orbits on the direction double cover.  Connectivity
questions (split components, graph components, merged regions) are
answered by one batch union-find.  Parity questions (bipartitions,
alternating edge signs, checkerboard crossings, ribbon orientability)
are answered by one two-colouring solver over GF(2).  Cycle-space
questions (small edge cuts, the odd edges of an even multigraph) are
answered by one spanning forest that labels every edge with its
coordinates over the fundamental cycles.

The first two number their classes ``0 .. count-1`` in the order of each
class's least point, so the labels are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import TuraevError


def orbits(
    step: Sequence[int], via: Sequence[int] | None = None
) -> tuple[list[int], int]:
    """Label the orbits of the permutation ``step`` of ``range(len(step))``.

    With ``via``, ``step`` and ``via`` must be fixed-point-free
    involutions, and the orbits are those of the group they generate: the
    closed alternating walks ``h -> via[h] -> step[via[h]]``.

    Returns ``(labels, count)``.  A walk that does not close up at its
    start (``step`` is not a permutation) raises ``TuraevError``.
    """
    label = [-1] * len(step)
    count = 0
    for h0 in range(len(step)):
        if label[h0] >= 0:
            continue
        h = h0
        if via is None:
            while label[h] < 0:
                label[h] = count
                h = step[h]
        else:
            while label[h] < 0:
                label[h] = count
                h = via[h]
                label[h] = count
                h = step[h]
        if h != h0:
            raise TuraevError(f"orbit from {h0} did not close up at {h}")
        count += 1
    return label, count


def least_points(labels: Sequence[int]) -> list[int]:
    """The least point of each class, in label order."""
    out: list[int] = []
    for i, lab in enumerate(labels):
        if lab == len(out):
            out.append(i)
    return out


def cycles(step: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The ``orbits`` labels of ``step``, and each orbit as its points
    in walk order from its least point, orbits in label order."""
    labels, _ = orbits(step)
    out: list[list[int]] = []
    for h0 in least_points(labels):
        cycle = [h0]
        h = step[h0]
        while h != h0:
            cycle.append(h)
            h = step[h]
        out.append(cycle)
    return labels, out


def components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Union-find over ``range(n)`` joining each pair.

    Returns ``(labels, count)`` with the same numbering as ``orbits``.
    """
    parent = list(range(n))
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
    label = [-1] * n
    count = 0
    for i in range(n):
        r = i
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        if label[r] < 0:
            label[r] = count
            count += 1
        label[i] = label[r]
    return label, count


def fundamental_cycles(
    n: int, pairs: Sequence[tuple[int, int]]
) -> tuple[list[int], int]:
    """Each edge's coordinates over the fundamental cycles of one spanning
    forest of the graph on ``range(n)`` with edges ``pairs``.

    The forest grows breadth-first from each unreached point in index
    order.  The k-th non-tree edge, in pair order, gets the bit ``1 << k``;
    a tree edge gets the XOR of the bits of the non-tree edges leaving the
    subtree below it, which are the non-tree edges whose fundamental cycle
    passes through it.  So an edge lies in the sum of the fundamental
    cycles of a bit set s exactly when its label has an odd number of bits
    in s, and an edge set is a cut (meets every cycle evenly) exactly when
    its labels XOR to 0.

    Returns ``(labels, count)``, ``count`` the number of trees.
    """
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, w) in enumerate(pairs):
        incident[u].append((w, i))
        incident[w].append((u, i))
    parent = [-1] * n   # a root is its own parent
    up = [-1] * n       # the tree edge to the parent
    labels = [-1] * len(pairs)  # -1 until an edge is known to be in the tree
    order: list[int] = []
    count = head = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        count += 1
        parent[root] = root
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for w, i in incident[v]:
                if parent[w] < 0:
                    parent[w] = v
                    up[w] = i
                    labels[i] = 0
                    order.append(w)
    crossing = [0] * n
    bit = 1
    for i, label in enumerate(labels):
        if label < 0:
            u, w = pairs[i]
            labels[i] = bit
            crossing[u] ^= bit
            crossing[w] ^= bit
            bit <<= 1
    for v in reversed(order):
        if up[v] >= 0:
            labels[up[v]] = crossing[v]
            crossing[parent[v]] ^= crossing[v]
    return labels, count


def groups(labels: Sequence[int], count: int) -> list[list[int]]:
    """Members of each class, classes in label order."""
    out: list[list[int]] = [[] for _ in range(count)]
    for i, lab in enumerate(labels):
        out[lab].append(i)
    return out


def orbit(first, actions: Sequence, reached: set | None = None) -> set:
    """Add to ``reached`` (a new set by default) the orbit of ``first``
    under the group that ``actions`` generate, each a function from a
    member to its image, and return ``reached``."""
    reached = set() if reached is None else reached
    reached.add(first)
    todo = [first]
    for member in todo:
        for act in actions:
            image = act(member)
            if image not in reached:
                reached.add(image)
                todo.append(image)
    return reached


def pair_actions(pairs: Sequence[tuple[int, int]],
                 gens: Iterable[Sequence[int]]) -> list:
    """For ``orbit``: each vertex permutation of ``gens`` acting on tuples
    indexed by ``pairs``, distinct pairs (u, v), u < v, that it permutes."""
    position = {e: i for i, e in enumerate(pairs)}
    actions = []
    for g in gens:
        source = [0] * len(pairs)  # entry i moves to its pair's image
        for i, (u, v) in enumerate(pairs):
            source[position[(g[u], g[v]) if g[u] < g[v] else (g[v], g[u])]] = i
        actions.append(lambda entries, s=source: tuple(map(entries.__getitem__, s)))
    return actions


def two_colouring(
    n: int, constraints: Iterable[tuple[int, int, int]]
) -> tuple[list[int], None] | tuple[None, list[int]]:
    """Solve ``x[u] ^ x[v] == b`` over ``range(n)`` for each constraint
    ``(u, v, b)``.

    Each uncoloured point, in index order, gets colour 0, and the colour
    spreads depth-first along the constraints in the order given.  Returns
    ``(colours, None)``, or ``(None, cycle)`` for an inconsistent system:
    ``cycle`` is a closed walk of points along the constraints whose bits
    sum to one, a violated constraint closing a search-tree path.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, b in constraints:
        adj[u].append((v, b))
        adj[v].append((u, b))
    colour = [-1] * n
    parent = [-1] * n
    for seed in range(n):
        if colour[seed] >= 0:
            continue
        colour[seed] = 0
        stack = [seed]
        while stack:
            u = stack.pop()
            for w, b in adj[u]:
                want = colour[u] ^ b
                if colour[w] < 0:
                    colour[w] = want
                    parent[w] = u
                    stack.append(w)
                elif colour[w] != want:
                    # a point that has spread its colour checked all its
                    # constraints then, so unless this one is a loop, w
                    # still waits on the stack, pushed by u or an ancestor
                    # of u: the witness climbs from u to w's parent
                    cycle = [u]
                    if w != u:
                        while cycle[-1] != parent[w]:
                            cycle.append(parent[cycle[-1]])
                        cycle.append(w)
                    return None, cycle
    return colour, None
