import dataclasses
import random

import pytest

from konigmatch import (
    BipartiteGraph,
    Matching,
    build_graph,
    konig_cover,
    konig_vertices,
    maximum_matching,
    reverse_konig,
    split_by_cover,
    star_stud,
)
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import DomainError, NotMinimumCover, RoundTripFailed
from konigmatch.oracle import (
    OracleBudget,
    all_maximal_matchings,
    all_minimum_covers,
)

from conftest import (
    keeping,
    labeled,
    matching_by_labels,
    rebuilt,
    reference_reverse_up,
)


def test_split_by_cover_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    # the up half lies in the up part, C △ U
    up_half = reverse_konig(split).edges - split.m_down.edges
    assert set().union(*up_half) <= labeled(fork, "a1", "a2", "b1")
    # the down half: the maximum matching's edge at c1, the cover's U-end
    assert split.m_down == matching_by_labels(fork, [("c1", "d1")])
    assert split.up_roots == labeled(fork, "a1", "a2")


def test_a_split_stores_only_its_defining_data(fork):
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    assert [f.name for f in dataclasses.fields(split)] == [
        "graph", "cover", "up_roots", "m_down"]


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


def test_the_down_matching_is_the_maximum_matching_at_the_cover():
    # a minimum cover holds one end of each edge of the maximum matching
    # M*, and each of its vertices lies on an M* edge, so the M* edges at
    # U ∩ C saturate U ∩ C and leave C at their V-ends
    budget = OracleBudget(max_vertices=26, max_subsets=2 ** 21)
    graphs = [*cached_corpus(9),
              *(star_stud(h).full for h in cached_corpus(5))]
    covers = 0
    for g in graphs:
        u_side = g.u_side
        for cover in all_minimum_covers(g, budget):
            m_down = split_by_cover(g, cover).m_down
            assert m_down.graph is g
            assert m_down.edges <= maximum_matching(g).edges
            for a, b in m_down.edges:
                u, v = (a, b) if a in u_side else (b, a)
                assert u in cover and v not in cover
            assert m_down.unsaturated(u_side & cover) == []
            covers += 1
    assert covers == 1709 + 15  # the 9-vertex corpus, the studded graphs


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
    # an unhashable entry is no root, even in an order of the right length
    g, cover = next((g, c) for g in cached_corpus(5)
                    for c in all_minimum_covers(g)
                    if len(g.u_side - c) == 1)
    with pytest.raises(NotMinimumCover):
        reverse_konig(split_by_cover(g, cover), [[0]])


def test_a_visit_order_that_repeats_a_root_is_rejected():
    orders = 0
    for g in cached_corpus(6):
        for cover in all_minimum_covers(g):
            roots = sorted(g.u_side - cover)
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
    roots = sorted(g.u_side - cover)
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
    # the down matching is a matching of the graph itself: the edge of
    # its maximum matching at c1
    assert split.m_down.graph is fork
    assert split.m_down.edges == matching_by_labels(fork,
                                                    [("c1", "d1")]).edges
    assert reverse_konig(split).graph is fork


def test_a_split_whose_parts_belong_to_another_cover_does_not_round_trip(p4):
    a = labeled(p4, "1", "3")
    b = labeled(p4, "2", "4")
    stale = dataclasses.replace(split_by_cover(p4, a), cover=b)
    with pytest.raises(RoundTripFailed):
        reverse_konig(stale)
    assert issubclass(RoundTripFailed, DomainError)
    # every ordered pair of distinct minimum covers, across the corpus:
    # the walk stays on the roots of the split's own cover, so it never
    # meets U ∩ C vertices that the down matching already holds
    budget = OracleBudget(max_vertices=40, max_subsets=2 ** 21)
    graphs = [*cached_corpus(8),
              *(star_stud(h).full for h in cached_corpus(4))]
    pairs = 0
    for g in graphs:
        covers = all_minimum_covers(g, budget)
        for a in covers:
            split = split_by_cover(g, a)
            for b in covers - {a}:
                with pytest.raises(RoundTripFailed):
                    reverse_konig(dataclasses.replace(split, cover=b))
                pairs += 1
    assert pairs == 1186


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
        built.append((graph, len(edges)))
        init(self, graph, edges)

    monkeypatch.setattr(Matching, "__init__", counting_init)
    roots = sorted(split.up_roots)
    sizes = [len(reverse_konig(split, order))
             for order in (None, roots, roots[::-1])]
    # one matching per call, given each of its edges once
    assert built == [(fork, size) for size in sizes]


def test_splitting_and_reversing_build_no_graphs(monkeypatch, fork):
    cached_corpus(7)  # the sweep's graphs, built before the patch

    def no_graphs(*args, **kwargs):
        raise AssertionError("an up-part graph was built")

    # every build, by the constructor or from masks, stores its masks
    monkeypatch.setattr(BipartiteGraph, "_store", no_graphs)
    assert verify.sweep_reverse_round_trip(7, jobs=1).ok
    split = split_by_cover(fork, labeled(fork, "b1", "c1"))
    assert konig_vertices(reverse_konig(split)) == split.cover


def test_the_kept_maximum_matching_moves_the_matching_but_not_its_cover():
    # the down matching follows the graph's kept maximum matching M*:
    # with M* grown from each maximal matching M, the split's down
    # matching lies in that M*, and every cover still round-trips, though
    # the matching often differs from the one the graph's own M*, the
    # search from the empty matching, leads to
    pairs = moved = 0
    graphs_moved = set()
    for index, g in enumerate(cached_corpus(8)):
        empty_start = rebuilt(g)
        covers = sorted(all_minimum_covers(g), key=sorted)
        from_empty = [reverse_konig(split_by_cover(empty_start, c)).edges
                      for c in covers]
        for m in all_maximal_matchings(g):
            rg = keeping(g, m.edges)
            m_star = maximum_matching(rg)
            for cover, edges in zip(covers, from_empty):
                split = split_by_cover(rg, cover)
                assert split.m_down.edges <= m_star.edges
                reversed_m = reverse_konig(split)
                assert konig_vertices(reversed_m) == cover
                if reversed_m.edges != edges:
                    moved += 1
                    graphs_moved.add(index)
                pairs += 1
    assert (pairs, moved, len(graphs_moved)) == (5969, 3081, 232)
