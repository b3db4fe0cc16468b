import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    AugmentingPath,
    Matching,
    augment,
    build_graph,
    find_augmenting_path,
    greedy_maximal_matching,
    is_maximal,
    matching_number,
    maximum_matching,
)
from konigmatch.errors import InvalidMatching, SaturatedStart
from konigmatch.corpus import cached_corpus
from konigmatch.oracle import all_matchings, maximum_matching_size_brute_force

from conftest import matching_by_labels


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
    path = AugmentingPath((0, 2, 1, 3), m)
    assert path.edges == {(0, 2), (1, 2), (1, 3)}
    with pytest.raises(InvalidMatching):
        AugmentingPath((0, 2), m)  # 2 is saturated
    with pytest.raises(InvalidMatching):
        AugmentingPath((0, 2, 1), m)  # ends at the saturated 3
    with pytest.raises(InvalidMatching):
        AugmentingPath((0,), m)
    with pytest.raises(InvalidMatching):
        AugmentingPath((0, 3), m)  # not an edge
    with pytest.raises(InvalidMatching):
        AugmentingPath((0, 2, 1, 0), m)  # 0 twice
    empty = Matching(p4, ())
    with pytest.raises(InvalidMatching):
        AugmentingPath((0, 2, 1), empty)  # two non-matching edges in a row


def test_greedy_maximal_follows_the_order(p4):
    m = greedy_maximal_matching(p4, [(1, 2), (0, 2), (1, 3)])
    assert m.edges == {(1, 2)}
    assert is_maximal(m)
    m2 = greedy_maximal_matching(p4, [(0, 2), (1, 2), (1, 3)])
    assert m2.edges == {(0, 2), (1, 3)}


def test_greedy_maximal_requires_a_permutation(p4):
    with pytest.raises(InvalidMatching):
        greedy_maximal_matching(p4, [(0, 2)])
    with pytest.raises(InvalidMatching):
        greedy_maximal_matching(p4, [(0, 2), (0, 2), (1, 2), (1, 3)])


def test_find_augmenting_path_on_the_path_graph(p4):
    m = matching_by_labels(p4, [("2", "3")])
    path = find_augmenting_path(m, 0)
    assert path.vertices == (0, 2, 1, 3)
    bigger = augment(path)
    assert len(bigger) == 2
    assert all(bigger.saturates(v) for v in p4.vertices)
    with pytest.raises(SaturatedStart):
        find_augmenting_path(m, p4.vertex_by_label("2"))


def test_augment_rejects_non_augmenting(p4):
    m = matching_by_labels(p4, [("2", "3")])
    with pytest.raises(InvalidMatching):
        augment(AugmentingPath((0, 2), m))


def test_maximum_matching_on_fork(fork):
    m = maximum_matching(fork)
    assert len(m) == 2


@given(graphs())
def test_maximum_matching_is_maximal_and_stable(g):
    m = maximum_matching(g)
    assert is_maximal(m)
    for u in m.unsaturated(g.left):
        assert find_augmenting_path(m, u) is None


@given(graphs(), st.randoms(use_true_random=False))
def test_greedy_never_beats_maximum(g, rng):
    order = sorted(g.edges)
    rng.shuffle(order)
    greedy = greedy_maximal_matching(g, order)
    assert is_maximal(greedy)
    assert len(greedy) <= len(maximum_matching(g))
    # a maximal matching is at least half the maximum
    assert 2 * len(greedy) >= len(maximum_matching(g))


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
