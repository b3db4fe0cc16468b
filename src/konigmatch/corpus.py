"""Exhaustive corpus of small connected bipartite graphs.

With the smaller side on the left (nl ≤ nr vertices), a graph is the
tuple of its nr right neighbourhoods, each a bitmask over the left side.
Its edge mask has bit ``i * nr + j`` for edge ``(i, j)``.  Listing the
neighbourhoods in non-increasing order is the column order with the
smallest edge mask, so generation walks only non-increasing tuples and
tries just the nl! left relabelings (plus the side swap when nl == nr).
A tuple is kept when it covers the left side, is connected, and no
relabeling gives a smaller edge mask: one representative per
isomorphism class, the one with the smallest mask.  Sizes above
``MAX_CORPUS_VERTICES`` are refused.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

from .errors import BudgetExceeded
from .graph import BipartiteGraph, build_graph

MAX_CORPUS_VERTICES = 11


def _is_connected(cols: tuple[int, ...], full: int) -> bool:
    """Do the neighbourhoods ``cols`` form one component covering ``full``?"""
    reached, rest = cols[0], cols[1:]
    while rest:
        unreached = []
        for c in rest:
            if c & reached:
                reached |= c
            else:
                unreached.append(c)
        if len(unreached) == len(rest):
            return False
        rest = unreached
    return reached == full


def _block(nl: int, nr: int) -> list[BipartiteGraph]:
    """The corpus graphs with nl left and nr right vertices, nl ≤ nr."""
    full = (1 << nl) - 1
    # spread[c]: edge bits of the left set c as column 0
    spread = [sum(1 << i * nr for i in range(nl) if c >> i & 1)
              for c in range(full + 1)]
    # relabelings[k][c]: the left set c under the k-th left permutation
    relabelings = [[sum(1 << p[i] for i in range(nl) if c >> i & 1)
                    for c in range(full + 1)]
                   for p in permutations(range(nl))]

    def edge_mask(cols: Sequence[int]) -> int:
        return sum(spread[c] << j for j, c in enumerate(cols))

    def beaten(cols: tuple[int, ...], mask: int) -> bool:
        """Does some left relabeling of ``cols`` have a smaller mask?"""
        return any(edge_mask(sorted(map(r.__getitem__, cols), reverse=True))
                   < mask for r in relabelings)

    found = []
    for cols in combinations_with_replacement(range(full, 0, -1), nr):
        if not _is_connected(cols, full):
            continue
        mask = edge_mask(cols)
        if beaten(cols, mask):
            continue
        if nl == nr:
            rows = tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1)
                         for i in range(nl))
            if beaten(rows, mask):
                continue
        found.append((mask, cols))
    return [build_graph(nl, nr, [(i, j) for j, c in enumerate(cols)
                                 for i in range(nl) if c >> i & 1])
            for _, cols in sorted(found)]


def connected_bipartite_graphs(max_vertices: int) -> list[BipartiteGraph]:
    """All connected bipartite graphs with 2..max_vertices vertices, one
    representative per isomorphism class (bipartition swap included).

    Raises ``BudgetExceeded`` above ``MAX_CORPUS_VERTICES``.
    """
    if max_vertices > MAX_CORPUS_VERTICES:
        raise BudgetExceeded(
            f"max_vertices {max_vertices} exceeds the corpus limit "
            f"{MAX_CORPUS_VERTICES}")
    return [g for nl in range(1, max_vertices)
            for nr in range(nl, max_vertices - nl + 1)
            for g in _block(nl, nr)]


@lru_cache(maxsize=4)
def cached_corpus(max_vertices: int) -> tuple[BipartiteGraph, ...]:
    """Memoized corpus; generation dominates sweep setup time."""
    return tuple(connected_bipartite_graphs(max_vertices))
