"""Differential checks against networkx on graphs too large for the
brute-force oracle: ν, the Kőnig cover of a maximum matching, and the
reverse procedure's round trip."""

import random
import sys

import pytest

from konigmatch import (
    build_graph,
    konig_cover,
    konig_vertices,
    matching_number,
    maximum_matching,
    reverse_konig,
    split_by_cover,
)

nx = pytest.importorskip("networkx")
from networkx.algorithms import bipartite  # noqa: E402


def seeded_graph(n):
    """n + n vertices and about 3n edges drawn by ``random.Random(n)``."""
    rng = random.Random(n)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    return build_graph(n, n, sorted(edges))


def networkx_matching_and_cover(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    top = sorted(g.left)
    # networkx's Hopcroft–Karp searches depth-first by recursion, as deep
    # as the longest alternating path
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(g.vertices) + 1000))
    try:
        mate = bipartite.hopcroft_karp_matching(h, top_nodes=top)
        cover = bipartite.to_vertex_cover(h, mate, top_nodes=top)
    finally:
        sys.setrecursionlimit(limit)
    return mate, frozenset(cover)


@pytest.mark.parametrize("n", [200, 350, 500])
def test_large_graphs_agree_with_networkx(n):
    g = seeded_graph(n)
    mate, nx_cover = networkx_matching_and_cover(g)
    nu = len(mate) // 2
    mm = maximum_matching(g)
    assert matching_number(g) == len(mm) == nu
    cover = konig_cover(mm)
    assert cover.is_cover and cover.is_minimum
    assert len(cover) == len(nx_cover) == nu
    # both minimum covers, ours and networkx's, survive the round trip
    for c in (cover.vertices, nx_cover):
        assert konig_vertices(
            reverse_konig(split_by_cover(g, c)).combined) == c
