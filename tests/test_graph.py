import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    BipartiteGraph,
    build_graph,
    connected_components,
    induced_subgraph,
)
from konigmatch.graph import MAX_VERTICES
from konigmatch.errors import (
    BudgetExceeded,
    DuplicateVertex,
    IndexOutOfRange,
    SameSideEdge,
    UnknownVertex,
)

from conftest import labeled


def test_build_graph_assigns_dense_ids(p4):
    assert p4.left == {0, 1}
    assert p4.right == {2, 3}
    assert p4.edges == {(0, 2), (1, 2), (1, 3)}
    assert p4.labels == {0: "1", 1: "3", 2: "2", 3: "4"}


def test_build_graph_swaps_larger_left_side():
    g = build_graph(3, 2, [(0, 0), (1, 0), (2, 1)])
    # ids are unchanged, only the roles swap: the two right ids form left
    assert g.right == {0, 1, 2}
    assert g.left == {3, 4}
    assert g.edge_key(0, 3) == (3, 0)


def test_build_graph_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRange):
        build_graph(2, 2, [(2, 0)])
    with pytest.raises(IndexOutOfRange):
        build_graph(2, 2, [(0, -1)])
    with pytest.raises(IndexOutOfRange):
        build_graph(-1, 1, [])


def test_build_graph_rejects_duplicate_labels():
    with pytest.raises(DuplicateVertex):
        build_graph(1, 1, [(0, 0)], ["x"], ["x"])


def test_build_graph_rejects_wrong_label_counts():
    with pytest.raises(IndexOutOfRange):
        build_graph(2, 1, [(0, 0)], ["only-one"], ["r"])


@pytest.mark.parametrize("left, right, edges", [
    ({-1}, {0}, [(-1, 0)]),
    ({0}, {-5}, []),
    ({"a"}, {0}, [("a", 0)]),
    ({0}, {1.0}, [(0, 1.0)]),
], ids=["negative-left", "negative-right", "string", "float"])
def test_vertex_ids_must_be_non_negative_integers(left, right, edges):
    # every vertex is a bit of the graph's masks, so its id must be a bit
    # index; the refusal comes before any mask is built
    with pytest.raises(IndexOutOfRange, match="non-negative integer"):
        BipartiteGraph(left, right, edges)


def test_vertex_ids_must_lie_below_the_vertex_budget():
    # a neighbour mask is as wide as the highest neighbour id, so the
    # budget bounds every mask; the highest id allowed builds
    g = BipartiteGraph({0}, {MAX_VERTICES - 1}, [(0, MAX_VERTICES - 1)])
    assert g.neighbors(0) == {MAX_VERTICES - 1}
    with pytest.raises(BudgetExceeded, match=f"{MAX_VERTICES:,} vertices"):
        BipartiteGraph({0}, {MAX_VERTICES}, [(0, MAX_VERTICES)])
    with pytest.raises(BudgetExceeded):
        build_graph(1, MAX_VERTICES, [])
    assert MAX_VERTICES == 20_000


def test_same_side_edge_rejected():
    with pytest.raises(SameSideEdge):
        BipartiteGraph({0, 1}, {2}, [(0, 1)])


def test_edge_with_unknown_vertex_rejected():
    with pytest.raises(UnknownVertex):
        BipartiteGraph({0}, {1}, [(0, 7)])


def test_vertex_on_both_sides_rejected():
    with pytest.raises(DuplicateVertex):
        BipartiteGraph({0, 1}, {1, 2}, [])


def test_neighbors_and_has_edge(p4):
    three = p4.vertex_by_label("3")
    assert p4.neighbors(three) == labeled(p4, "2", "4")
    assert p4.edge_key(three, p4.vertex_by_label("2")) in p4.edges
    assert p4.edge_key(p4.vertex_by_label("2"), three) in p4.edges
    assert (p4.edge_key(p4.vertex_by_label("1"), p4.vertex_by_label("4"))
            not in p4.edges)
    with pytest.raises(UnknownVertex):
        p4.neighbors(99)
    with pytest.raises(UnknownVertex):
        p4.vertex_by_label("nope")
    with pytest.raises(UnknownVertex):
        p4.vertex_by_label(["1"])  # unhashable, so it names no vertex


def test_equality_ignores_labels(p4):
    twin = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)], ["a", "b"], ["c", "d"])
    assert p4 == twin
    assert hash(p4) == hash(twin)
    assert p4 != build_graph(2, 2, [(0, 0), (1, 1)])


def test_induced_subgraph_keeps_parent_ids(p4):
    sub = induced_subgraph(p4, labeled(p4, "2", "3", "4"))
    assert sub.left == labeled(p4, "3")
    assert sub.right == labeled(p4, "2", "4")
    assert len(sub.edges) == 2
    assert sub.labels[p4.vertex_by_label("3")] == "3"
    with pytest.raises(UnknownVertex):
        induced_subgraph(p4, {0, 99})


def test_connected_components_partition():
    g = BipartiteGraph({0, 1, 2}, {3, 4}, [(0, 3), (1, 4), (2, 4)])
    comps = connected_components(g, g.vertices)
    assert len(comps) == 2
    assert sorted(sorted(c.vertices) for c in comps) == [[0, 3], [1, 2, 4]]


def test_connected_components_refuse_an_unknown_vertex(p4):
    with pytest.raises(UnknownVertex):
        connected_components(p4, {0, 99})


def test_procedure_sides_chosen_per_component():
    # first component: sides tie, left stays U; second: right is smaller
    g = BipartiteGraph({0, 1, 2}, {3, 4}, [(0, 3), (1, 4), (2, 4)])
    assert g.u_side == {0, 4}
    assert g.vertices - g.u_side == {3, 1, 2}


@st.composite
def graphs(draw):
    """Small graphs, possibly disconnected, with isolated vertices and
    with either side the larger."""
    nl = draw(st.integers(1, 5))
    nr = draw(st.integers(1, 5))
    possible = [(i, j) for i in range(nl) for j in range(nr)]
    edges = draw(st.sets(st.sampled_from(possible)))
    return build_graph(nl, nr, sorted(edges))


@given(graphs())
def test_procedure_sides_match_the_per_component_definition(g):
    u_side: set[int] = set()
    v_side: set[int] = set()
    for comp in connected_components(g, g.vertices):
        if len(comp.left) <= len(comp.right):
            u_side |= comp.left
            v_side |= comp.right
        else:
            u_side |= comp.right
            v_side |= comp.left
    assert g.u_side == u_side
    assert g.vertices - g.u_side == v_side


def reference_components(h):
    """The vertex sets of ``h``'s components, by least vertex, merged one
    edge at a time."""
    comp = {v: frozenset([v]) for v in h.vertices}
    for u, v in h.edges:
        merged = comp[u] | comp[v]
        for x in merged:
            comp[x] = merged
    return sorted(set(comp.values()), key=min)


@given(st.data())
def test_components_of_a_vertex_subset_are_its_induced_subgraphs(data):
    g = data.draw(graphs())
    s = data.draw(st.sets(st.sampled_from(sorted(g.vertices))))
    h = induced_subgraph(g, s)
    comps = connected_components(g, s)
    # a partition of s, in least-vertex order, into the components of h
    assert [c.vertices for c in comps] == reference_components(h)
    for c in comps:
        assert c == induced_subgraph(h, c.vertices)
        assert c.labels == {v: g.labels[v] for v in c.vertices}
