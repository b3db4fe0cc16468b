"""Exhaustive corpus of small connected bipartite graphs.

With the smaller side on the left (nl ≤ nr vertices), a graph is the
tuple of its nr right neighbourhoods, its columns, each a bitmask over
the left side.  Its edge mask has bit ``i * nr + j`` for edge ``(i, j)``:
read it as nl rows of nr bits, row i the neighbourhood of left vertex i
as a bitmask over the columns, and two masks compare row by row from row
nl - 1 down.  The corpus keeps one graph per isomorphism class, the one
with the smallest edge mask over all left relabelings (plus the side swap
when nl == nr).  With the left labels fixed, sorting the columns into
non-increasing order gives the smallest mask, so every kept tuple is
non-increasing, and a left relabeling is judged on its re-sorted columns.

Generation is orderly (Read, Ann. Discrete Math. 2, 1978), so its work
follows the output instead of a scan of every tuple.  Two facts make it
so.  Once the top k rows of a relabeling are placed, the column sort
fixes their values whatever lies below, so ``_beaten`` decides whether a
tuple is canonical by a refinement search: it places left vertices from
the top, splits each run of equal columns by the vertex placed, and cuts
a branch as soon as its row exceeds the tuple's own row.  And dropping
the bottom row of a canonical tuple leaves a canonical tuple, so
``_block`` grows the canonical tuples one bottom row at a time: each
k-row tuple gets every nonempty row that keeps the columns
non-increasing (for each run of equal columns, the only choice is how
many of them take the new bit), and the children the search does not
beat make the next level.  Zero columns are allowed until the last row,
where a tuple is kept only if it is connected (so it has no zero column)
and, when nl == nr, is not beaten by its transpose under the same
search.  A block lists its graphs by increasing edge mask, that is, by
their rows read from the top.  Sizes above the corpus limit
(``errors.Limit.CORPUS_VERTICES``) are refused.  ``cached_corpus`` hands
out each graph with its U and M* set.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import groupby, product

from .errors import Limit
from .graph import BipartiteGraph, build_graph
from .matching import maximum_matching


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


def _beaten(rows: Sequence[int], target: Sequence[int], full: int) -> bool:
    """Does some order of ``rows``, placed from the top with the columns
    re-sorted under them, read below ``target``, row by row from the top?

    ``rows`` are bitmasks over the columns ``full``.  A placed prefix
    splits the columns into cells of equal values in sorted order, each a
    ``(start, columns)`` pair; the next row sets the first bits of every
    cell, one per column of the cell in its neighbourhood.
    """
    def search(depth: int, cells: list[tuple[int, int]],
               rest: tuple[int, ...]) -> bool:
        want = target[depth]
        for k, r in enumerate(rest):
            row = 0
            for start, cell in cells:
                row |= ((1 << (cell & r).bit_count()) - 1) << start
            if row < want:
                return True
            if row == want and depth + 1 < len(target):
                split = []
                for start, cell in cells:
                    inside = cell & r
                    if inside:
                        split.append((start, inside))
                    if inside != cell:
                        split.append((start + inside.bit_count(),
                                      cell ^ inside))
                if search(depth + 1, split, rest[:k] + rest[k + 1:]):
                    return True
        return False

    return search(0, [(0, full)], tuple(rows))


def _block(nl: int, nr: int) -> list[BipartiteGraph]:
    """The corpus graphs with nl left and nr right vertices, nl ≤ nr."""
    full = (1 << nr) - 1
    # the canonical k-row tuples: rows top first, as column bitmasks, and
    # the columns, bit 0 the bottom row
    level = [((), (0,) * nr)]
    for k in range(1, nl + 1):
        last = k == nl
        grown = []
        for rows, cols in level:
            # per run of equal columns, the new row's bits over it
            choices, start = [], 0
            for _, same in groupby(cols):
                n = len(tuple(same))
                choices.append([((1 << t) - 1) << start
                                for t in range(n + 1)])
                start += n
            for bits in product(*choices):
                new = sum(bits)
                if not new:
                    continue
                child = tuple(c << 1 | new >> j & 1
                              for j, c in enumerate(cols))
                child_rows = rows + (new,)
                if last and not _is_connected(child, (1 << nl) - 1):
                    continue
                # the new row first: it is the likeliest to beat the tuple
                if _beaten((new,) + rows, child_rows, full):
                    continue
                if last and nl == nr and _beaten(child, child_rows, full):
                    continue
                grown.append((child_rows, child))
        level = grown
    # rows top first compare as the edge masks do
    return [build_graph(nl, nr, [(i, j) for j, c in enumerate(cols)
                                 for i in range(nl) if c >> i & 1])
            for _, cols in sorted(level)]


def connected_bipartite_graphs(max_vertices: int) -> list[BipartiteGraph]:
    """All connected bipartite graphs with 2..max_vertices vertices, one
    representative per isomorphism class (bipartition swap included).

    Raises ``BudgetExceeded`` above ``Limit.CORPUS_VERTICES``.
    """
    if max_vertices > Limit.CORPUS_VERTICES.value:
        raise Limit.CORPUS_VERTICES.refusal(max_vertices)
    return [g for nl in range(1, max_vertices)
            for nr in range(nl, max_vertices - nl + 1)
            for g in _block(nl, nr)]


@lru_cache(maxsize=4)
def cached_corpus(max_vertices: int) -> tuple[BipartiteGraph, ...]:
    """Memoized corpus, so the sweeps of one process share one build;
    each graph's M* is searched here, so a walk's forked workers inherit
    it."""
    corpus = tuple(connected_bipartite_graphs(max_vertices))
    for g in corpus:
        maximum_matching(g)
    return corpus
