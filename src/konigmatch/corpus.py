"""Exhaustive corpus of small connected bipartite graphs.

Graphs are enumerated as edge subsets of complete bipartite graphs and
deduplicated by a canonical form: the minimum edge bitmask over all
side-preserving vertex permutations (plus the side swap for balanced
bipartitions).  The canonicalization is exact for the sizes handled
here; permutation tables are vectorized with numpy to keep it fast.
numpy is imported only when a corpus is generated, so commands that
never build one do not load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

from .graph import BipartiteGraph, build_graph

if TYPE_CHECKING:
    import numpy as np


@lru_cache(maxsize=None)
def _perm_table(nl: int, nr: int) -> np.ndarray:
    """Edge-index permutations for all row/column relabelings.

    Edge ``(i, j)`` has index ``i * nr + j``; each table row maps old edge
    indices to new ones under one (row-perm, col-perm) pair.
    """
    import numpy as np

    rows = []
    for pl in permutations(range(nl)):
        for pr in permutations(range(nr)):
            rows.append([pl[i] * nr + pr[j]
                         for i in range(nl) for j in range(nr)])
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _transpose_index(n: int) -> np.ndarray:
    import numpy as np

    return np.array([j * n + i for i in range(n) for j in range(n)],
                    dtype=np.int64)


def _canonical_key(nl: int, nr: int, bits: np.ndarray) -> int:
    """Minimum bitmask over all relabelings (and side swap when nl == nr)."""
    import numpy as np

    weights = 1 << np.arange(nl * nr, dtype=np.int64)
    table = _perm_table(nl, nr)
    best = int(bits[table].dot(weights).min())
    if nl == nr:
        swapped = bits[_transpose_index(nl)]
        best = min(best, int(swapped[table].dot(weights).min()))
    return best


def _is_connected(nl: int, nr: int, edge_list: list[tuple[int, int]]) -> bool:
    n = nl + nr
    adjacency: list[list[int]] = [[] for _ in range(n)]
    degree = [0] * n
    for i, j in edge_list:
        adjacency[i].append(nl + j)
        adjacency[nl + j].append(i)
        degree[i] += 1
        degree[nl + j] += 1
    if any(d == 0 for d in degree):
        return False
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def connected_bipartite_graphs(max_vertices: int) -> list[BipartiteGraph]:
    """All connected bipartite graphs with 2..max_vertices vertices, one
    representative per isomorphism class (bipartition swap included)."""
    import numpy as np

    out: list[BipartiteGraph] = []
    for nl in range(1, max_vertices):
        for nr in range(nl, max_vertices - nl + 1):
            all_edges = [(i, j) for i in range(nl) for j in range(nr)]
            seen: set[int] = set()
            for mask in range(1, 1 << len(all_edges)):
                edge_list = [all_edges[k] for k in range(len(all_edges))
                             if mask >> k & 1]
                if len(edge_list) < nl + nr - 1:
                    continue
                if not _is_connected(nl, nr, edge_list):
                    continue
                bits = np.fromiter(
                    ((mask >> k) & 1 for k in range(nl * nr)),
                    dtype=np.int64, count=nl * nr)
                key = _canonical_key(nl, nr, bits)
                if key in seen:
                    continue
                seen.add(key)
                out.append(build_graph(nl, nr, edge_list))
    return out


@lru_cache(maxsize=4)
def cached_corpus(max_vertices: int) -> tuple[BipartiteGraph, ...]:
    """Memoized corpus; generation dominates sweep setup time."""
    return tuple(connected_bipartite_graphs(max_vertices))
