"""Round-based colour refinement: the reference that the splitter-queue
``families._refine`` is checked against.

Each round recomputes every non-singleton cell's signatures, so
information moves one step along a path per round.  The body is the
refinement the canonical search used before it had a splitter queue.
"""


def round_refine(nbrs: list[tuple[tuple[int, int], ...]], base: int,
                 col: list[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition ``col``
    (a vertex's colour is the first position of its cell), splitting each
    cell by its members' sorted (neighbour colour, multiplicity) pairs,
    encoded as ``base * colour + multiplicity``.  The new cells of a cell
    take its positions in order of signature, so the result depends only
    on the coloured graph, not on its vertex numbering."""
    while True:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(col):
            cells.setdefault(c, []).append(v)
        new = None
        for start, members in cells.items():
            if len(members) == 1:
                continue
            sigs = [tuple(sorted([base * col[w] + m for w, m in nbrs[v]]))
                    for v in members]
            counts: dict[tuple, int] = {}
            for sig in sigs:
                counts[sig] = counts.get(sig, 0) + 1
            if len(counts) == 1:
                continue
            if new is None:
                new = col[:]
            pos = start
            for sig in sorted(counts):
                pos, counts[sig] = pos + counts[sig], pos
            for v, sig in zip(members, sigs):
                new[v] = counts[sig]
        if new is None:
            return col
        col = new
