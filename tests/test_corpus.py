from collections import Counter

import pytest

from konigmatch.corpus import cached_corpus, connected_bipartite_graphs
from konigmatch.graph import build_graph, connected_components


def test_known_corpus_sizes():
    # one representative per isomorphism class of connected bipartite
    # graphs, bipartition swap included
    assert len(cached_corpus(2)) == 1    # the single edge
    assert len(cached_corpus(3)) == 2    # edge, path on three vertices
    assert len(cached_corpus(4)) == 5
    assert len(cached_corpus(8)) == 253


def test_every_graph_is_connected_and_normalized():
    for g in cached_corpus(6):
        assert len(connected_components(g)) == 1
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
    # connected bipartite graphs on n nodes, n = 2..9 (4032 follow at 10)
    sizes = Counter(len(g.vertices) for g in connected_bipartite_graphs(9))
    assert [sizes[n] for n in range(2, 10)] == [1, 1, 3, 5, 17, 44, 182, 730]


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
