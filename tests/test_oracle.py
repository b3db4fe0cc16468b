import pytest

from konigmatch import (
    build_graph,
    hall_condition,
    is_maximal,
    maximum_matching,
)
from konigmatch.corpus import cached_corpus
from konigmatch.errors import BudgetExceeded
from konigmatch.oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    maximum_matching_size_brute_force,
    minimum_covers_by_subset_scan,
)

from conftest import labeled


def test_minimum_covers_of_the_path_graph(p4):
    covers = all_minimum_covers(p4)
    assert covers == {
        labeled(p4, "1", "3"),
        labeled(p4, "2", "3"),
        labeled(p4, "2", "4"),
    }


def test_branch_and_bound_agrees_with_subset_scan():
    for g in cached_corpus(6):
        assert all_minimum_covers(g) == minimum_covers_by_subset_scan(g)


def test_all_matchings_counts(p4, c4):
    assert len(all_matchings(p4)) == 5   # empty, three single edges, one pair
    assert len(all_matchings(c4)) == 7   # empty, four singles, two perfect
    assert any(len(m) == 0 for m in all_matchings(p4))


def test_all_maximal_matchings(p4):
    maximal = all_maximal_matchings(p4)
    assert len(maximal) == 2
    assert all(is_maximal(p4, m) for m in maximal)
    assert {frozenset(m.edges) for m in maximal} == \
        {frozenset({(1, 2)}), frozenset({(0, 2), (1, 3)})}


def test_maximal_enumeration_matches_the_filter_definition():
    for g in cached_corpus(6):
        pruned = {m.edges for m in all_maximal_matchings(g)}
        filtered = {m.edges for m in all_matchings(g) if is_maximal(g, m)}
        assert pruned == filtered


def test_brute_force_matching_size_agrees():
    for g in cached_corpus(6):
        assert maximum_matching_size_brute_force(g) == len(maximum_matching(g))


def test_hall_condition_on_an_unbalanced_star():
    star = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert hall_condition(star, "left")
    assert not hall_condition(star, "right")


def test_budgets_are_enforced(p4):
    big = build_graph(9, 9, [(i, i) for i in range(9)])
    with pytest.raises(BudgetExceeded):
        all_minimum_covers(big, OracleBudget(max_vertices=10))
    with pytest.raises(BudgetExceeded):
        hall_condition(big, "left", OracleBudget(max_subsets=4))
    with pytest.raises(BudgetExceeded):
        minimum_covers_by_subset_scan(p4, OracleBudget(max_subsets=8))
