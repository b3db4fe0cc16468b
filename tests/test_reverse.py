import pytest

from konigmatch import (
    build_graph,
    konig_cover,
    maximum_matching,
    reverse_konig,
    reverse_procedure_up,
    saturating_matching_down,
    split_by_cover,
)
from konigmatch.corpus import cached_corpus
from konigmatch.errors import NotMinimumCover
from konigmatch.oracle import all_minimum_covers

from conftest import labeled, matching_by_labels


def test_split_by_cover_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    assert split.up.vertices == labeled(fork, "a1", "a2", "b1")
    assert split.down.vertices == labeled(fork, "c1", "d1", "d2", "d3")
    assert split.cut_edges == {tuple(sorted(labeled(fork, "c1", "b1")))}
    assert split.up_roots == labeled(fork, "a1", "a2")
    assert split.down_cover_side == labeled(fork, "c1")


def test_split_rejects_non_minimum_covers(fork):
    with pytest.raises(NotMinimumCover):
        split_by_cover(fork, labeled(fork, "a1", "b1"))  # not a cover
    minimal_only = konig_cover(
        fork, matching_by_labels(fork, [("b1", "c1")]))
    assert minimal_only.is_minimal and not minimal_only.is_minimum
    with pytest.raises(NotMinimumCover):
        split_by_cover(fork, minimal_only)


def test_down_part_saturates_the_cover_side(fork):
    cover = labeled(fork, "b1", "c1")
    split = split_by_cover(fork, cover)
    m_down = saturating_matching_down(split)
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
        result = reverse_konig(fork, cover, order)
        assert konig_cover(fork, result.combined).vertices == cover


def test_reverse_konig_derives_the_visit_order_once(fork, monkeypatch):
    passed = []

    def spy(split, visit_order=None):
        passed.append(visit_order)
        return reverse_procedure_up(split, visit_order)

    monkeypatch.setattr("konigmatch.reverse.reverse_procedure_up", spy)
    cover = labeled(fork, "b1", "c1")
    roots = sorted(labeled(fork, "a1", "a2"))
    for order, expected in ((None, roots), (roots[::-1], roots[::-1])):
        result = reverse_konig(fork, cover, order)
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
        result = reverse_konig(p4, cover)
        assert konig_cover(p4, result.combined).vertices == cover
        assert result.combined.edges == result.m_up.edges | result.m_down.edges


def test_round_trip_matching_reaches_maximum_size_on_the_fork(fork):
    cover = labeled(fork, "b1", "c1")
    result = reverse_konig(fork, cover)
    assert konig_cover(fork, result.combined).vertices == cover
    assert len(result.combined) == len(maximum_matching(fork))


def test_round_trip_over_the_small_corpus():
    for g in cached_corpus(6):
        for cover in all_minimum_covers(g):
            result = reverse_konig(g, cover)
            assert konig_cover(g, result.combined).vertices == cover


def test_reverse_walks_a_long_path_without_recursion():
    # path p0 - p1 - ... - p4999, even positions on the left; with the
    # right side as the cover, one root's walk runs along the whole path
    half = 2500
    edges = [(i, i) for i in range(half)] + \
        [(i + 1, i) for i in range(half - 1)]
    g = build_graph(half, half, edges)
    cover = g.right
    result = reverse_konig(g, cover)
    assert len(result.m_up) == half - 1
    assert konig_cover(g, result.combined).vertices == cover
