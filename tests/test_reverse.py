import dataclasses
import random

import pytest

from konigmatch import (
    build_graph,
    konig_cover,
    maximum_matching,
    reverse_konig,
    reverse_procedure_up,
    split_by_cover,
)
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import DomainError, NotMinimumCover, RoundTripFailed
from konigmatch.graph import procedure_sides
from konigmatch.oracle import all_minimum_covers

from conftest import labeled, matching_by_labels


def test_split_by_cover_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    assert split.up.vertices == labeled(fork, "a1", "a2", "b1")
    assert split.m_down.graph.vertices == labeled(fork, "c1", "d1", "d2",
                                                  "d3")
    assert split.cut_edges == {tuple(sorted(labeled(fork, "c1", "b1")))}
    assert split.up_roots == labeled(fork, "a1", "a2")
    assert split.down_cover_side == labeled(fork, "c1")


def test_a_split_stores_only_its_defining_data(fork):
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    assert [f.name for f in dataclasses.fields(split)] == [
        "graph", "cover", "up", "up_roots", "m_down"]


def test_split_rejects_non_minimum_covers(fork):
    with pytest.raises(NotMinimumCover):
        split_by_cover(fork, labeled(fork, "a1", "b1"))  # not a cover
    minimal_only = konig_cover(matching_by_labels(fork, [("b1", "c1")]))
    assert minimal_only.is_minimal and not minimal_only.is_minimum
    with pytest.raises(NotMinimumCover):
        split_by_cover(fork, minimal_only)


def test_down_part_saturates_the_cover_side(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    m_down = split.m_down
    (c1,) = labeled(fork, "c1")
    assert m_down.saturates(c1)
    assert len(m_down) == 1


def test_up_part_keeps_roots_unsaturated(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    m_up = reverse_procedure_up(split)
    # b1 gets matched to a2 (a1, the first root, stays single)
    assert m_up.edges == {tuple(sorted(labeled(fork, "a2", "b1")))}
    # either visit order leads back to the same cover
    for order in (sorted(split.up_roots), sorted(split.up_roots)[::-1]):
        result = reverse_konig(split, order)
        assert konig_cover(result.combined).vertices == cover


def test_reverse_konig_derives_the_visit_order_once(fork, monkeypatch):
    passed = []

    def spy(split, visit_order=None):
        passed.append(visit_order)
        return reverse_procedure_up(split, visit_order)

    monkeypatch.setattr("konigmatch.reverse.reverse_procedure_up", spy)
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    roots = sorted(labeled(fork, "a1", "a2"))
    for order, expected in ((None, roots), (roots[::-1], roots[::-1])):
        result = reverse_konig(split, order)
        assert result.visit_order == tuple(expected)
        assert passed.pop() is result.visit_order


def test_visit_order_must_cover_the_roots(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    with pytest.raises(NotMinimumCover):
        reverse_procedure_up(split, sorted(labeled(fork, "a1")))


def test_round_trip_on_the_path_graph(p4):
    for cover_labels in (("1", "3"), ("2", "3"), ("2", "4")):
        cover = labeled(p4, *cover_labels)
        split = split_by_cover(p4, cover)
        result = reverse_konig(split)
        assert konig_cover(result.combined).vertices == cover
        assert result.combined.edges == result.m_up.edges | split.m_down.edges


def test_round_trip_matching_reaches_maximum_size_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    result = reverse_konig(split_by_cover(fork, cover))
    assert konig_cover(result.combined).vertices == cover
    assert len(result.combined) == len(maximum_matching(fork))


def test_round_trip_over_the_small_corpus():
    for g in cached_corpus(6):
        for cover in all_minimum_covers(g):
            result = reverse_konig(split_by_cover(g, cover))
            assert konig_cover(result.combined).vertices == cover


def test_reverse_walks_a_long_path_without_recursion():
    # path p0 - p1 - ... - p4999, even positions on the left; with the
    # right side as the cover, one root's walk runs along the whole path
    half = 2500
    edges = [(i, i) for i in range(half)] + \
        [(i + 1, i) for i in range(half - 1)]
    g = build_graph(half, half, edges)
    cover = g.right
    result = reverse_konig(split_by_cover(g, cover))
    assert len(result.m_up) == half - 1
    assert konig_cover(result.combined).vertices == cover


def _visit_orders(g, cover, rng):
    """The default order and five shuffles of the uncovered U side."""
    roots = sorted(procedure_sides(g)[0] - cover)
    orders = [None]
    for _ in range(5):
        rng.shuffle(roots)
        orders.append(roots[:])
    return orders


def test_a_shared_split_gives_what_a_fresh_call_gives():
    rng = random.Random(0)
    calls = 0
    for g in cached_corpus(6):
        for cover in all_minimum_covers(g):
            split = split_by_cover(g, cover)
            for order in _visit_orders(g, cover, rng):
                shared = reverse_konig(split, order)
                fresh = reverse_konig(split_by_cover(g, cover), order)
                assert shared.m_up == fresh.m_up
                assert shared.combined == fresh.combined
                assert shared.visit_order == fresh.visit_order
                calls += 1
    assert calls == 6 * 51


def test_the_split_records_its_graph_cover_and_down_matching(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    assert split.graph is fork
    assert split.cover == cover
    # the down matching's graph is the down part
    (c1,) = labeled(fork, "c1")
    assert split.m_down.graph.neighbors(c1) == labeled(fork, "d1", "d2",
                                                       "d3")
    assert reverse_konig(split).combined.graph is fork


def test_a_split_whose_parts_belong_to_another_cover_does_not_round_trip(p4):
    a = labeled(p4, "1", "3")
    b = labeled(p4, "2", "4")
    stale = dataclasses.replace(split_by_cover(p4, a), cover=b)
    with pytest.raises(RoundTripFailed):
        reverse_konig(stale)
    assert issubclass(RoundTripFailed, DomainError)


def test_the_reverse_sweep_splits_each_cover_once(monkeypatch):
    splits, reverses = [], []

    def counting_split(g, c):
        splits.append(c)
        return split_by_cover(g, c)

    def counting_reverse(split, visit_order=None):
        reverses.append(split)
        return reverse_konig(split, visit_order)

    monkeypatch.setattr("konigmatch.verify.split_by_cover", counting_split)
    monkeypatch.setattr("konigmatch.verify.reverse_konig", counting_reverse)
    result = verify.sweep_reverse_round_trip(6)
    assert result.ok
    covers = sum(len(all_minimum_covers(g)) for g in cached_corpus(6))
    assert len(splits) == covers == 51
    assert len(reverses) == result.cases == 6 * covers
    # the six visit orders of a cover share its one split
    assert len({id(split) for split in reverses}) == covers


def test_the_reverse_sweep_catches_a_stale_split(monkeypatch):
    # hand every cover of a graph the split of its first cover: a cover
    # fixes its uncovered U side, so every order of a later cover fails
    first = {}

    def stale_split(g, c):
        if g not in first:
            first[g] = split_by_cover(g, c)
        return first[g]

    monkeypatch.setattr("konigmatch.verify.split_by_cover", stale_split)
    result = verify.sweep_reverse_round_trip(6)
    later_covers = sum(len(all_minimum_covers(g)) - 1
                       for g in cached_corpus(6))
    assert later_covers > 0
    assert len(result.violations) == 6 * later_covers
    assert result.cases == 6 * 51
