import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    Matching,
    build_graph,
    is_minimal_cover,
    is_minimum_cover,
    is_vertex_cover,
    konig_cover,
    maximum_matching,
    z_set,
)
from konigmatch.errors import NotACover, UnknownVertex

from conftest import labeled, matching_by_labels


@st.composite
def graphs(draw):
    nl = draw(st.integers(1, 4))
    nr = draw(st.integers(1, 4))
    possible = [(i, j) for i in range(nl) for j in range(nr)]
    edges = draw(st.sets(st.sampled_from(possible), min_size=1))
    return build_graph(nl, nr, sorted(edges))


def test_z_set_alternating_closure(p4):
    m = matching_by_labels(p4, [("2", "3")])
    # 1 is the only unsaturated U-vertex; it reaches 2, then the matched
    # edge leads to 3, whose non-matching edge reaches 4
    assert z_set(p4, m) == labeled(p4, "1", "2", "3", "4")
    m2 = matching_by_labels(p4, [("3", "4")])
    assert z_set(p4, m2) == labeled(p4, "1", "2")


def test_z_set_empty_for_perfect_matching(c4):
    m = Matching(c4, [(0, 2), (1, 3)])
    assert len(z_set(c4, m)) == 0
    cover = konig_cover(c4, m)
    assert cover.vertices == c4.left
    assert cover.is_minimum


def test_cover_verdicts_ordering(p4):
    cover = konig_cover(p4, matching_by_labels(p4, [("3", "4")]))
    assert cover.vertices == labeled(p4, "2", "3")
    assert cover.is_cover and cover.is_minimal and cover.is_minimum
    assert p4.vertex_by_label("2") in cover
    assert len(cover) == 2


def test_empty_matching_on_a_star_is_minimal_not_minimum():
    star = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    cover = konig_cover(star, Matching(star, ()))
    assert cover.vertices == star.right
    assert cover.is_cover
    assert cover.is_minimal
    assert not cover.is_minimum


def test_non_maximal_matching_can_overshoot_the_minimum():
    # a path on five vertices, one end edge matched: the whole larger
    # side comes out, one more vertex than necessary
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    m = Matching(g, [(0, 3)])
    cover = konig_cover(g, m)
    assert cover.vertices == g.right
    assert cover.is_cover
    assert cover.is_minimal
    assert not cover.is_minimum


def test_is_vertex_cover(p4):
    assert is_vertex_cover(p4, labeled(p4, "1", "3"))
    assert not is_vertex_cover(p4, labeled(p4, "1", "4"))
    with pytest.raises(UnknownVertex):
        is_vertex_cover(p4, {99})


def test_is_minimal_cover_requires_a_cover(p4):
    assert is_minimal_cover(p4, labeled(p4, "2", "4"))
    assert not is_minimal_cover(p4, labeled(p4, "1", "2", "3"))
    with pytest.raises(NotACover):
        is_minimal_cover(p4, labeled(p4, "1", "4"))


def test_is_minimum_cover_is_false_for_non_covers(p4):
    assert is_minimum_cover(p4, labeled(p4, "2", "3"))
    assert not is_minimum_cover(p4, labeled(p4, "1", "4"))
    assert not is_minimum_cover(p4, labeled(p4, "1", "2", "3"))


@given(graphs())
def test_maximum_matching_always_yields_a_minimum_cover(g):
    mm = maximum_matching(g)
    cover = konig_cover(g, mm)
    assert cover.is_cover
    assert cover.is_minimum
    assert len(cover) == len(mm)


@given(graphs())
def test_matched_edges_have_exactly_one_endpoint_in_the_cover(g):
    mm = maximum_matching(g)
    cover = konig_cover(g, mm)
    for u, v in mm.edges:
        assert (u in cover) != (v in cover)
