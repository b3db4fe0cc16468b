import dataclasses
import random

import pytest

from konigmatch import (
    Matching,
    build_graph,
    konig_cover,
    maximum_matching,
    reverse_konig,
    split_by_cover,
    star_stud,
)
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import DomainError, NotMinimumCover, RoundTripFailed
from konigmatch.graph import procedure_sides
from konigmatch.oracle import OracleBudget, all_minimum_covers

from conftest import labeled, matching_by_labels, reference_reverse_up


def test_split_by_cover_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    assert split.up.vertices == labeled(fork, "a1", "a2", "b1")
    assert split.m_down.graph.vertices == labeled(fork, "c1", "d1", "d2",
                                                  "d3")
    assert split.up_roots == labeled(fork, "a1", "a2")


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
    m_up = reverse_konig(split).edges - split.m_down.edges
    # b1 gets matched to a2 (a1, the first root, stays single)
    assert m_up == {tuple(sorted(labeled(fork, "a2", "b1")))}
    # either visit order leads back to the same cover
    for order in (sorted(split.up_roots), sorted(split.up_roots)[::-1]):
        assert konig_cover(reverse_konig(split, order)).vertices == cover


def test_reverse_konig_passes_the_visit_order_through(fork):
    # the first root visited stays single, so the two orders differ
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    roots = sorted(labeled(fork, "a1", "a2"))
    ups = [reverse_konig(split, order).edges - split.m_down.edges
           for order in (None, roots, roots[::-1])]
    assert ups[0] == ups[1] != ups[2]
    for up, order in zip(ups, (None, roots, roots[::-1])):
        assert up == reference_reverse_up(split, order).edges


def test_visit_order_must_cover_the_roots(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    for order in (sorted(labeled(fork, "a1")),
                  sorted(labeled(fork, "a1", "a2", "b1"))):
        with pytest.raises(NotMinimumCover):
            reverse_konig(split, order)


def test_a_visit_order_that_repeats_a_root_is_rejected():
    orders = 0
    for g in cached_corpus(6):
        u_side, _ = procedure_sides(g)
        for cover in all_minimum_covers(g):
            roots = sorted(u_side - cover)
            if not roots:
                continue
            split = split_by_cover(g, cover)
            with pytest.raises(NotMinimumCover):
                reverse_konig(split, roots + roots[:1])
            orders += 1
    # compared as sets, each of these orders would round-trip
    assert orders == 25


def test_round_trip_on_the_path_graph(p4):
    for cover_labels in (("1", "3"), ("2", "3"), ("2", "4")):
        cover = labeled(p4, *cover_labels)
        split = split_by_cover(p4, cover)
        m = reverse_konig(split)
        assert konig_cover(m).vertices == cover
        m_up = reference_reverse_up(split)
        assert m.edges == m_up.edges | split.m_down.edges


def test_round_trip_matching_reaches_maximum_size_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    m = reverse_konig(split_by_cover(fork, cover))
    assert konig_cover(m).vertices == cover
    assert len(m) == len(maximum_matching(fork))


def test_round_trip_over_the_small_corpus():
    for g in cached_corpus(6):
        for cover in all_minimum_covers(g):
            m = reverse_konig(split_by_cover(g, cover))
            assert konig_cover(m).vertices == cover


def test_reverse_walks_a_long_path_without_recursion():
    # path p0 - p1 - ... - p4999, even positions on the left; with the
    # right side as the cover, one root's walk runs along the whole path
    half = 2500
    edges = [(i, i) for i in range(half)] + \
        [(i + 1, i) for i in range(half - 1)]
    g = build_graph(half, half, edges)
    cover = g.right
    split = split_by_cover(g, cover)
    m = reverse_konig(split)
    assert len(m.edges - split.m_down.edges) == half - 1
    assert m.edges == reference_reverse_up(split).edges | split.m_down.edges
    assert konig_cover(m).vertices == cover


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
                assert shared == fresh
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
    assert reverse_konig(split).graph is fork


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
    result = verify.sweep_reverse_round_trip(6, jobs=1)
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


def test_reverse_konig_matches_the_reference_over_the_sweeps_orders(
        monkeypatch):
    # every minimum cover of the 8-vertex corpus, with the six visit
    # orders the round-trip sweep draws for it
    mismatched = []

    def pinned_reverse(split, visit_order=None):
        m = reverse_konig(split, visit_order)
        up = reference_reverse_up(split, visit_order)
        if m.edges != up.edges | split.m_down.edges:
            mismatched.append((split, visit_order))
        return m

    monkeypatch.setattr("konigmatch.verify.reverse_konig", pinned_reverse)
    result = verify.sweep_reverse_round_trip(8, jobs=1)
    assert result.ok and result.cases == 3228
    assert mismatched == []


def test_reverse_konig_matches_the_reference_on_small_and_studded_graphs(
        fork, p4):
    rng = random.Random(5)
    budget = OracleBudget(max_vertices=26, max_subsets=2 ** 21)
    graphs = [fork, p4] + [star_stud(h).full for h in cached_corpus(5)]
    covers = 0
    for g in graphs:
        for cover in all_minimum_covers(g, budget):
            split = split_by_cover(g, cover)
            for order in _visit_orders(g, cover, rng):
                m = reverse_konig(split, order)
                up = reference_reverse_up(split, order)
                assert m.edges == up.edges | split.m_down.edges, (g, order)
            covers += 1
    assert covers == 1 + 3 + 15  # the fork, p4, the studded graphs


def test_reverse_konig_builds_one_matching_per_call(fork, monkeypatch):
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    built = []
    init = Matching.__init__

    def counting_init(self, graph, edges):
        built.append(graph)
        init(self, graph, edges)

    monkeypatch.setattr(Matching, "__init__", counting_init)
    roots = sorted(split.up_roots)
    for order in (None, roots, roots[::-1]):
        reverse_konig(split, order)
    assert built == [fork] * 3
