import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    Matching,
    build_graph,
    is_minimal_cover,
    is_minimum_cover,
    is_vertex_cover,
    konig_cover,
    konig_vertices,
    matching_number,
    maximum_matching,
    procedure_sides,
    z_set,
)
from konigmatch.corpus import cached_corpus
from konigmatch.errors import NotACover, UnknownVertex
from konigmatch.oracle import all_matchings, all_maximal_matchings

from conftest import labeled, matching_by_labels


@st.composite
def graphs(draw):
    nl = draw(st.integers(1, 4))
    nr = draw(st.integers(1, 4))
    possible = [(i, j) for i in range(nl) for j in range(nr)]
    edges = draw(st.sets(st.sampled_from(possible), min_size=1))
    return build_graph(nl, nr, sorted(edges))


def reference_z_set(g, m):
    """Z by its two rules, one vertex at a time: non-matching edges out of
    U-vertices, the matching edge out of V-vertices."""
    u_side, _ = procedure_sides(g)
    z = {u for u in u_side if not m.saturates(u)}
    stack = list(z)
    while stack:
        x = stack.pop()
        if x in u_side:
            for y in g.neighbors(x):
                if (x, y) not in m and y not in z:
                    z.add(y)
                    stack.append(y)
        else:
            p = m.partner(x)
            if p is not None and p not in z:
                z.add(p)
                stack.append(p)
    return frozenset(z)


def corpus_matchings():
    """Every matching of every graph with at most 8 vertices."""
    cases = [(g, m) for g in cached_corpus(8) for m in all_matchings(g)]
    assert len(cases) == 11618
    return cases


def test_konig_layer_is_pinned_on_every_corpus_matching(monkeypatch):
    results = []
    for g, m in corpus_matchings():
        assert z_set(m) == reference_z_set(g, m)
        k = konig_vertices(m)
        cover = konig_cover(m)
        assert cover.vertices == k
        assert cover.is_cover == is_vertex_cover(g, k)
        assert cover.is_minimal == is_minimal_cover(g, k)
        assert cover.is_minimum == (len(k) == matching_number(g))
        results.append((g, m, k))
    # K(M) always covers, so the verdicts are also checked on the 45,956
    # sets one vertex short of it, each of which leaves an edge uncovered:
    # Z is replaced by U △ K' so that the procedure yields K'
    short = {}
    monkeypatch.setattr("konigmatch.konig.z_set",
                        lambda m: procedure_sides(m.graph)[0] ^ short["k"])
    uncovered = 0
    for g, m, full in results:
        for r in full:
            k = short["k"] = full - {r}
            cover = konig_cover(m)
            assert cover.vertices == k
            assert cover.is_cover == is_vertex_cover(g, k)
            assert cover.is_minimal == (cover.is_cover
                                        and is_minimal_cover(g, k))
            assert cover.is_minimum == is_minimum_cover(g, k)
            uncovered += not cover.is_cover
    assert uncovered == 45956


def test_konig_vertices_cover_every_edge_for_every_matching():
    """K(M) is a vertex cover for every matching M, maximal or not.

    Proof: an edge xy with x ∈ U has x ∈ U \\ Z ⊆ K, or x ∈ Z and then
    y ∈ V ∩ Z ⊆ K, because N(Z ∩ U) ⊆ Z.
    """
    for g, m in corpus_matchings():
        assert is_vertex_cover(g, konig_vertices(m))


def test_konig_size_identity_on_every_maximal_corpus_matching():
    """|K(M)| = |M| + |R(M)|, with R(M) the unsaturated V-vertices in
    Z(M), and |R(M)| ≥ ν − |M|.

    Every U \\ Z vertex is saturated with its partner outside Z, and
    every saturated V ∩ Z vertex has its partner in Z, so each matched
    edge puts one vertex in K(M) and R(M) supplies the rest.  M △ M*,
    with M* maximum, holds ν − |M| disjoint augmenting paths, and each
    ends in R(M).  So K(M) is minimum iff |R(M)| = ν − |M|.
    """
    cases = 0
    for g in cached_corpus(8):
        _, v_side = procedure_sides(g)
        nu = matching_number(g)
        for m in all_maximal_matchings(g):
            free_reached = {v for v in z_set(m) & v_side
                            if not m.saturates(v)}
            assert len(konig_vertices(m)) == len(m) + len(free_reached)
            assert len(free_reached) >= nu - len(m)
            cases += 1
    assert cases == 3166


def test_z_set_alternating_closure(p4):
    m = matching_by_labels(p4, [("2", "3")])
    # 1 is the only unsaturated U-vertex; it reaches 2, then the matched
    # edge leads to 3, whose non-matching edge reaches 4
    assert z_set(m) == labeled(p4, "1", "2", "3", "4")
    m2 = matching_by_labels(p4, [("3", "4")])
    assert z_set(m2) == labeled(p4, "1", "2")


def test_z_set_empty_for_perfect_matching(c4):
    m = Matching(c4, [(0, 2), (1, 3)])
    assert len(z_set(m)) == 0
    cover = konig_cover(m)
    assert cover.vertices == c4.left
    assert cover.is_minimum


def test_cover_verdicts_ordering(p4):
    cover = konig_cover(matching_by_labels(p4, [("3", "4")]))
    assert cover.vertices == labeled(p4, "2", "3")
    assert cover.is_cover and cover.is_minimal and cover.is_minimum
    assert p4.vertex_by_label("2") in cover
    assert len(cover) == 2


def test_empty_matching_on_a_star_is_minimal_not_minimum():
    star = build_graph(1, 3, [(0, 0), (0, 1), (0, 2)])
    cover = konig_cover(Matching(star, ()))
    assert cover.vertices == star.right
    assert cover.is_cover
    assert cover.is_minimal
    assert not cover.is_minimum


def test_non_maximal_matching_can_overshoot_the_minimum():
    # a path on five vertices, one end edge matched: the whole larger
    # side comes out, one more vertex than necessary
    g = build_graph(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    m = Matching(g, [(0, 3)])
    cover = konig_cover(m)
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
    cover = konig_cover(mm)
    assert cover.is_cover
    assert cover.is_minimum
    assert len(cover) == len(mm)


@given(graphs())
def test_matched_edges_have_exactly_one_endpoint_in_the_cover(g):
    mm = maximum_matching(g)
    cover = konig_cover(mm)
    for u, v in mm.edges:
        assert (u in cover) != (v in cover)


def test_a_cover_iterates_over_its_vertices(fork):
    cover = konig_cover(matching_by_labels(fork, [("b1", "c1")]))
    assert frozenset(cover) == cover.vertices
    assert sorted(cover) == sorted(cover.vertices)
