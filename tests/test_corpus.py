from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import scan_block
from konigmatch import corpus
from konigmatch.corpus import cached_corpus, connected_bipartite_graphs
from konigmatch.graph import build_graph, connected_components


def blocks(max_vertices):
    """The corpus blocks (nl, nr), nl ≤ nr, with at most max_vertices."""
    return [(nl, nr) for nl in range(1, max_vertices)
            for nr in range(nl, max_vertices - nl + 1)]


def test_known_corpus_sizes():
    # one representative per isomorphism class of connected bipartite
    # graphs, bipartition swap included
    assert len(cached_corpus(2)) == 1    # the single edge
    assert len(cached_corpus(3)) == 2    # edge, path on three vertices
    assert len(cached_corpus(4)) == 5
    assert len(cached_corpus(8)) == 253


def test_every_graph_is_connected_and_normalized():
    for g in cached_corpus(6):
        assert len(connected_components(g, g.vertices)) == 1
        assert len(g.left) <= len(g.right)
        assert all(g.neighbors(v) for v in g.vertices)
        assert 2 <= len(g.vertices) <= 6


def test_no_structural_duplicates():
    corpus = cached_corpus(6)
    assert len(set(corpus)) == len(corpus)


def test_corpus_is_nested_by_size():
    small = {g for g in cached_corpus(5)}
    large = {g for g in cached_corpus(6)}
    assert small <= large


def test_canonicalization_collapses_relabelings():
    # the 2+2 paths 0-2-1-3 and 1-2-0-3 are isomorphic, so exactly one
    # four-vertex path appears in the corpus
    paths = [g for g in connected_bipartite_graphs(4)
             if len(g.vertices) == 4 and len(g.edges) == 3
             and len(g.left) == 2]
    assert len(paths) == 1
    assert paths[0] in (build_graph(2, 2, [(0, 0), (1, 0), (1, 1)]),
                        build_graph(2, 2, [(0, 0), (0, 1), (1, 1)]),
                        build_graph(2, 2, [(0, 0), (0, 1), (1, 0)]),
                        build_graph(2, 2, [(1, 0), (0, 1), (1, 1)]))


def test_cache_returns_the_same_tuple():
    assert cached_corpus(5) is cached_corpus(5)


def test_counts_per_size_match_oeis_a005142():
    # connected bipartite graphs on n nodes, n = 2..10 (25598 follow at 11)
    sizes = Counter(len(g.vertices) for g in connected_bipartite_graphs(10))
    assert [sizes[n] for n in range(2, 11)] == [1, 1, 3, 5, 17, 44, 182, 730,
                                                4032]


@pytest.mark.parametrize("nl, nr", blocks(9))
def test_the_generator_yields_the_scanned_graphs(nl, nr):
    # same graphs, same labels, same order as the scan it replaced
    ours, scanned = corpus._block(nl, nr), scan_block(nl, nr)
    assert ours == scanned
    assert [g.labels for g in ours] == [g.labels for g in scanned]


def _edge_mask(cols, nl, nr):
    return sum(1 << i * nr + j for j, c in enumerate(cols)
               for i in range(nl) if c >> i & 1)


def _least_edge_mask(cols, nl, nr):
    """The least edge mask over all nl! left relabelings of ``cols``, its
    columns re-sorted, and of its transpose when nl == nr."""
    sides = [cols]
    if nl == nr:
        sides.append([sum(1 << j for j, c in enumerate(cols) if c >> i & 1)
                      for i in range(nl)])
    return min(_edge_mask(sorted((sum(1 << p[i] for i in range(nl)
                                      if c >> i & 1) for c in side),
                                 reverse=True), nl, nr)
               for side in sides for p in permutations(range(nl)))


@pytest.mark.parametrize("nl, nr", blocks(8))
def test_the_canonicity_search_agrees_with_brute_force(nl, nr):
    # every non-increasing tuple of nonempty left sets, connected or not
    full, tried = (1 << nr) - 1, 0
    for cols in combinations_with_replacement(range((1 << nl) - 1, 0, -1),
                                              nr):
        # the rows top first, as column bitmasks
        rows = tuple(sum(1 << j for j, c in enumerate(cols) if c >> i & 1)
                     for i in reversed(range(nl)))
        beaten = (corpus._beaten(rows, rows, full)
                  or nl == nr and corpus._beaten(cols, rows, full))
        least = _least_edge_mask(cols, nl, nr) == _edge_mask(cols, nl, nr)
        assert beaten != least, cols
        tried += 1
    if (nl, nr) == (4, 4):
        assert tried == 3060


def test_the_graph_atlas_matches_the_seven_vertex_corpus():
    nx = pytest.importorskip("networkx")
    ours = []
    for g in cached_corpus(7):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        ours.append(h)
    atlas = [h for h in nx.graph_atlas_g()
             if 2 <= len(h) <= 7 and nx.is_connected(h) and nx.is_bipartite(h)]
    assert len(atlas) == len(ours) == 71
    for h in atlas:
        assert sum(nx.is_isomorphic(h, g) for g in ours) == 1
