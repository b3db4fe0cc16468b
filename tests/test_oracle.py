import gc
import random

import pytest

from konigmatch import (
    Matching,
    build_graph,
    hall_condition,
    is_maximal,
    maximum_matching,
    star_stud,
)
from konigmatch.corpus import cached_corpus
from konigmatch.errors import BudgetExceeded
from konigmatch.graph import connected_components
from konigmatch.oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    iter_maximal_matchings,
)

from conftest import (labeled, maximum_matching_size_brute_force,
                      minimum_covers_by_subset_scan)

# room for the studded graphs of cached_corpus(6), 31 vertices at most
STUDDED_BUDGET = OracleBudget(max_vertices=31, max_subsets=2 ** 21)


def reference_matchings(g):
    """Every matching's edge set: the set-based skip-before-take recursion
    over the sorted edges that the bitmask enumerator replaced."""
    edges = sorted(g.edges)
    results = []

    def recurse(i, chosen, used):
        if i == len(edges):
            results.append(frozenset(chosen))
            return
        u, v = edges[i]
        recurse(i + 1, chosen, used)
        if u not in used and v not in used:
            chosen.append((u, v))
            used.update((u, v))
            recurse(i + 1, chosen, used)
            chosen.pop()
            used.difference_update((u, v))

    recurse(0, [], set())
    return results


def reference_maximal_matchings(g):
    """The maximal matchings' edge sets: the same recursion, skipping an
    edge only if it is not the last one of two free endpoints, with a
    maximality scan over every edge at each leaf."""
    edges = sorted(g.edges)
    last_edge_index = {}
    for i, (u, v) in enumerate(edges):
        last_edge_index[u] = i
        last_edge_index[v] = i
    results = []

    def recurse(i, chosen, used):
        if i == len(edges):
            if all(u in used or v in used for u, v in edges):
                results.append(frozenset(chosen))
            return
        u, v = edges[i]
        free = u not in used and v not in used
        if not (free and last_edge_index[u] == i and last_edge_index[v] == i):
            recurse(i + 1, chosen, used)
        if free:
            chosen.append((u, v))
            used.update((u, v))
            recurse(i + 1, chosen, used)
            chosen.pop()
            used.difference_update((u, v))

    recurse(0, [], set())
    return results


def reference_minimum_covers(g):
    """Every minimum cover: the frozenset search that branches on an edge
    (take one endpoint or the other) with the target size deepened from 0,
    which the vertex-branching bitmask search replaced."""
    edges = sorted(g.edges)
    for k in range(len(g.vertices) + 1):
        out = set()
        stack = [(frozenset(), 0)]
        while stack:
            chosen, i = stack.pop()
            while i < len(edges) and (edges[i][0] in chosen
                                      or edges[i][1] in chosen):
                i += 1
            if i == len(edges):
                out.add(chosen)
            elif len(chosen) < k:
                u, v = edges[i]
                stack.append((chosen | {v}, i + 1))
                stack.append((chosen | {u}, i + 1))
        if out:
            return out


def random_small_graphs(count, seed):
    """Seeded random bipartite graphs of at most 12 vertices, with no
    connectivity required: some are disconnected or have isolated
    vertices, which the connected corpus never holds."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        left = rng.randint(max(1, n // 2 - 2), n // 2)
        p = rng.choice((0.25, 0.4, 0.6))
        right = n - left
        yield build_graph(left, right, [(i, j) for i in range(left)
                                        for j in range(right)
                                        if rng.random() < p])


def assert_same_enumeration(g, enumerated, reference):
    assert [m.edges for m in enumerated] == reference
    for m in enumerated:
        checked = Matching(g, m.edges)
        assert m == checked and m._partner == checked._partner


def test_minimum_covers_of_the_path_graph(p4):
    covers = all_minimum_covers(p4)
    assert covers == {
        labeled(p4, "1", "3"),
        labeled(p4, "2", "3"),
        labeled(p4, "2", "4"),
    }


def test_branch_and_bound_agrees_with_subset_scan():
    for g in cached_corpus(8):
        assert all_minimum_covers(g) == minimum_covers_by_subset_scan(g)
    disconnected = isolated = 0
    for g in random_small_graphs(300, seed=15):
        assert all_minimum_covers(g) == minimum_covers_by_subset_scan(g)
        disconnected += (len(connected_components(g, g.vertices)) > 1
                         and bool(g.edges))
        isolated += any(not g.neighbors(x) for x in g.vertices)
    assert disconnected and isolated


def test_minimum_covers_match_the_edge_branching_reference():
    for g in cached_corpus(9):
        assert all_minimum_covers(g) == reference_minimum_covers(g)
    for h in cached_corpus(6):
        g = star_stud(h).full
        assert all_minimum_covers(g, STUDDED_BUDGET) == \
            reference_minimum_covers(g)


def test_minimum_covers_of_edgeless_graphs_and_a_single_edge():
    for g in (build_graph(0, 0, []), build_graph(2, 3, [])):
        assert all_minimum_covers(g) == {frozenset()}
    edge = build_graph(1, 1, [(0, 0)])
    assert all_minimum_covers(edge) == {frozenset({0}), frozenset({1})}


def test_all_matchings_counts(p4, c4):
    assert len(all_matchings(p4)) == 5   # empty, three single edges, one pair
    assert len(all_matchings(c4)) == 7   # empty, four singles, two perfect
    assert any(len(m) == 0 for m in all_matchings(p4))


def test_all_maximal_matchings(p4):
    maximal = all_maximal_matchings(p4)
    assert len(maximal) == 2
    assert all(is_maximal(m) for m in maximal)
    assert {frozenset(m.edges) for m in maximal} == \
        {frozenset({(1, 2)}), frozenset({(0, 2), (1, 3)})}


def test_maximal_enumeration_matches_the_filter_definition():
    for g in cached_corpus(6):
        pruned = {m.edges for m in all_maximal_matchings(g)}
        filtered = {m.edges for m in all_matchings(g) if is_maximal(m)}
        assert pruned == filtered


def test_brute_force_matching_size_agrees():
    for g in cached_corpus(6):
        assert maximum_matching_size_brute_force(g) == len(maximum_matching(g))


def test_hall_condition_on_an_unbalanced_star():
    star = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert hall_condition(star) == (True, False)


def test_budgets_are_enforced(p4):
    big = build_graph(9, 9, [(i, i) for i in range(9)])
    with pytest.raises(BudgetExceeded):
        all_minimum_covers(big, OracleBudget(max_vertices=10))
    # within the vertex budget, so the per-side subset budget refuses it:
    # each side has 2^3 subsets
    small = build_graph(3, 3, [(i, i) for i in range(3)])
    assert hall_condition(small, OracleBudget(max_subsets=8)) == (True, True)
    with pytest.raises(BudgetExceeded):
        hall_condition(small, OracleBudget(max_subsets=4))
    with pytest.raises(BudgetExceeded):
        hall_condition(big, OracleBudget(max_vertices=10))
    with pytest.raises(BudgetExceeded):
        minimum_covers_by_subset_scan(p4, OracleBudget(max_subsets=8))


def test_the_cover_search_counts_its_nodes_against_the_subset_budget(c4):
    # an edgeless graph is one node, a leaf; the 4-cycle is four: the
    # root, its vertex-in child and the two leaves
    assert all_minimum_covers(build_graph(2, 2, []),
                              OracleBudget(max_subsets=1)) == {frozenset()}
    assert len(all_minimum_covers(c4, OracleBudget(max_subsets=4))) == 2
    with pytest.raises(BudgetExceeded):
        all_minimum_covers(c4, OracleBudget(max_subsets=3))


def test_enumerations_match_the_set_based_reference_in_order():
    for g in cached_corpus(9):
        assert_same_enumeration(g, all_matchings(g), reference_matchings(g))
    for g in cached_corpus(8):
        assert_same_enumeration(g, all_maximal_matchings(g),
                                reference_maximal_matchings(g))
    for h in cached_corpus(5):
        g = star_stud(h).full
        assert_same_enumeration(g, all_maximal_matchings(g, STUDDED_BUDGET),
                                reference_maximal_matchings(g))


def test_matching_enumerations_enforce_their_budgets(monkeypatch, c4):
    # all_matchings counts results: the 3 x 3 complete graph has 34
    k33 = build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
    assert len(all_matchings(k33, OracleBudget(max_subsets=34))) == 34
    with pytest.raises(BudgetExceeded):
        all_matchings(k33, OracleBudget(max_subsets=33))
    # the walk builds each result as it pops it, so a budget of 34 builds
    # exactly the 34 matchings, and 33 raises before building the 34th
    built = []
    unchecked = Matching._unchecked

    def counting(graph, edges):
        built.append(edges)
        return unchecked(graph, edges)

    monkeypatch.setattr(Matching, "_unchecked", staticmethod(counting))
    all_matchings(k33, OracleBudget(max_subsets=34))
    assert len(built) == 34
    built.clear()
    with pytest.raises(BudgetExceeded):
        all_matchings(k33, OracleBudget(max_subsets=33))
    assert len(built) == 33
    # all_maximal_matchings counts visited nodes, 64 per subset allowed
    assert len(all_maximal_matchings(c4, OracleBudget(max_subsets=1))) == 2
    with pytest.raises(BudgetExceeded):
        all_maximal_matchings(k33, OracleBudget(max_subsets=1))


def test_the_default_budget_refuses_k88_before_building_its_matchings(
        monkeypatch):
    # K8,8 has 1,441,729 matchings, K7,7 130,922: the default budget
    # lists the one and refuses the other after at most 2^17 builds
    assert 130_922 <= OracleBudget().max_subsets <= 2 ** 17
    built = 0
    unchecked = Matching._unchecked

    def counting(graph, edges):
        nonlocal built
        built += 1
        return unchecked(graph, edges)

    monkeypatch.setattr(Matching, "_unchecked", staticmethod(counting))
    k88 = build_graph(8, 8, [(i, j) for i in range(8) for j in range(8)])
    with pytest.raises(BudgetExceeded):
        all_matchings(k88)
    assert 0 < built <= 2 ** 17


def test_the_lazy_walk_checks_vertices_at_once_and_steps_as_it_goes():
    k33 = build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
    with pytest.raises(BudgetExceeded):
        iter_maximal_matchings(k33, OracleBudget(max_vertices=5))
    # the first maximal matching lies within the 64 nodes one subset
    # allows; the whole walk does not
    walk = iter_maximal_matchings(k33, OracleBudget(max_subsets=1))
    assert next(walk).edges == all_maximal_matchings(k33)[0].edges
    with pytest.raises(BudgetExceeded):
        list(walk)


@pytest.mark.parametrize("enumerate_", [
    all_matchings, all_maximal_matchings, all_minimum_covers])
def test_oracle_enumerations_leave_no_garbage_cycles(enumerate_, fork):
    # results are freed by reference counting as soon as the caller
    # drops them, without waiting for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        enumerate_(fork)
        assert gc.collect() == 0
    finally:
        gc.enable()
