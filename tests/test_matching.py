import random

import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    Matching,
    build_graph,
    enumerate_augmenting_paths,
    is_augmenting_path,
    is_maximal,
    matching_number,
    maximize,
    maximum_matching,
)
from konigmatch.errors import InvalidMatching
from konigmatch.corpus import cached_corpus
from konigmatch.experiments import random_maximal_matching
from konigmatch.oracle import all_matchings

from conftest import (flip, matching_by_labels,
                      maximum_matching_size_brute_force, reference_maximize)


@st.composite
def graphs(draw):
    nl = draw(st.integers(1, 4))
    nr = draw(st.integers(1, 4))
    possible = [(i, j) for i in range(nl) for j in range(nr)]
    edges = draw(st.sets(st.sampled_from(possible), min_size=1))
    return build_graph(nl, nr, sorted(edges))


def test_matching_rejects_non_edges(p4):
    with pytest.raises(InvalidMatching):
        Matching(p4, [(0, 3)])  # 1-4 is not an edge
    with pytest.raises(InvalidMatching):
        Matching(p4, [(0, 99)])


def test_matching_rejects_shared_endpoints(p4):
    with pytest.raises(InvalidMatching):
        Matching(p4, [(0, 2), (1, 2)])


def test_matching_queries(p4):
    m = matching_by_labels(p4, [("2", "3")])
    assert len(m) == 1
    assert m.saturates(p4.vertex_by_label("2"))
    assert not m.saturates(p4.vertex_by_label("1"))
    assert m.partner(p4.vertex_by_label("2")) == p4.vertex_by_label("3")
    assert m.partner(p4.vertex_by_label("1")) is None
    assert m.unsaturated(p4.vertices) == [0, 3]
    assert (2, 1) in m        # endpoint order is normalized
    assert (0, 2) not in m


def test_alternating_path_validation(p4):
    m = matching_by_labels(p4, [("2", "3")])
    path = (0, 2, 1, 3)
    assert is_augmenting_path(m, path)
    # M △ (M △ P) is P's edge set
    assert m.edges ^ flip(m, path).edges == {(0, 2), (1, 2), (1, 3)}
    assert is_augmenting_path(m, (0, 2)) is False  # 2 is saturated
    assert is_augmenting_path(m, (0, 2, 1)) is False  # ends at the saturated 3
    assert is_augmenting_path(m, (0,)) is False
    assert is_augmenting_path(m, (0, 3)) is False  # not an edge
    assert is_augmenting_path(m, (0, 2, 1, 0)) is False  # 0 twice
    empty = Matching(p4, ())
    # two non-matching edges in a row
    assert is_augmenting_path(empty, (0, 2, 1)) is False
    # 3-4 augments the matching {1-2}, but not m, which saturates 3
    assert is_augmenting_path(Matching(p4, [(0, 2)]), (1, 3))
    assert is_augmenting_path(m, (1, 3)) is False


def test_maximize_augments_along_the_path_graph(p4):
    m = matching_by_labels(p4, [("2", "3")])
    # the one augmenting path 1-2-3-4 flips the middle edge out
    bigger = maximize(m)
    assert bigger.edges == {(0, 2), (1, 3)}
    assert all(bigger.saturates(v) for v in p4.vertices)


def test_augment_rejects_non_augmenting(p4):
    # flipping a path that does not augment gives no matching, and the
    # constructor that checks each M △ P of maximize raises
    m = matching_by_labels(p4, [("2", "3")])
    with pytest.raises(InvalidMatching):
        flip(m, (0, 2))


def test_maximum_matching_on_fork(fork):
    m = maximum_matching(fork)
    assert len(m) == 2


@given(graphs())
def test_maximum_matching_is_maximal_and_stable(g):
    m = maximum_matching(g)
    assert is_maximal(m)
    assert enumerate_augmenting_paths(m) == []


def test_maximize_grows_any_matching_to_maximum():
    for g in cached_corpus(6):
        for m in all_matchings(g):
            grown = maximize(m)
            assert len(grown) == matching_number(g)
            # augmenting never frees a vertex
            assert all(grown.saturates(v) for edge in m.edges for v in edge)


@given(graphs(), st.randoms(use_true_random=False))
def test_greedy_never_beats_maximum(g, rng):
    greedy = random_maximal_matching(g, rng)
    assert is_maximal(greedy)
    assert len(greedy) <= len(maximum_matching(g))
    # a maximal matching is at least half the maximum
    assert 2 * len(greedy) >= len(maximum_matching(g))


def _random_graph(rng, max_side):
    nl, nr = rng.randint(1, max_side), rng.randint(1, max_side)
    p = rng.choice((0.02, 0.05, 0.1, 0.3))
    edges = [(i, j) for i in range(nl) for j in range(nr) if rng.random() < p]
    return build_graph(nl, nr, edges)


def test_maximum_matching_is_the_reference_search():
    graphs = list(cached_corpus(8))
    rng = random.Random(2024)
    graphs += [_random_graph(rng, 80) for _ in range(80)]
    # the path p0 - p1 - ... - p2999, even positions on the left
    half = 1500
    graphs.append(build_graph(half, half, [(i, i) for i in range(half)]
                              + [(i + 1, i) for i in range(half - 1)]))
    for g in graphs:
        assert maximum_matching(g).edges == \
            reference_maximize(Matching(g, ())).edges


def test_maximize_is_the_reference_search_from_every_matching():
    for g in cached_corpus(6):
        for m in all_matchings(g):
            assert maximize(m).edges == reference_maximize(m).edges


@given(graphs())
def test_cached_matching_number_is_the_maximum_matching_size(g):
    nu = matching_number(g)  # fresh graph: computed here, then cached
    assert nu == maximum_matching_size_brute_force(g)
    assert nu == len(maximum_matching(g)) == matching_number(g)



def _is_disjoint_cycle_union(edges):
    """True iff every vertex touched by ``edges`` has degree exactly 2."""
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return all(d == 2 for d in degree.values())


def test_cycle_differences_join_exactly_the_same_saturated_sets():
    # the lemma that lets the cycle-fiber sweep pair matchings only within
    # one saturated set: for distinct matchings, the symmetric difference
    # is a disjoint union of cycles iff they saturate the same vertices
    pairs = cycle_pairs = 0
    for g in cached_corpus(7):
        matchings = all_matchings(g)
        saturated = [frozenset(v for e in m.edges for v in e)
                     for m in matchings]
        for i, m1 in enumerate(matchings):
            for j in range(i + 1, len(matchings)):
                cycles = _is_disjoint_cycle_union(
                    m1.edges ^ matchings[j].edges)
                assert cycles == (saturated[i] == saturated[j])
                pairs += 1
                cycle_pairs += cycles
    assert (pairs, cycle_pairs) == (23349, 409)
