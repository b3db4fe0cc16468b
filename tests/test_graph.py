import tracemalloc

import pytest
from hypothesis import given, strategies as st

from konigmatch import (
    BipartiteGraph,
    build_graph,
    connected_components,
    induced_subgraph,
)
from konigmatch.corpus import connected_bipartite_graphs
from konigmatch.matching import maximum_matching
from konigmatch.errors import (
    BudgetExceeded,
    DuplicateVertex,
    IndexOutOfRange,
    Limit,
    SameSideEdge,
    UnknownVertex,
)

from conftest import given_build, graph_args, labeled


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


def test_the_constructor_refuses_a_vertex_without_a_label():
    with pytest.raises(IndexOutOfRange, match="vertex 1 has no label"):
        BipartiteGraph({0}, {1}, [(0, 1)], {0: "a"})
    # a label for no vertex is ignored
    g = BipartiteGraph({0}, {1}, [(0, 1)], {0: "a", 1: "b", 7: "c"})
    assert g.labels == {0: "a", 1: "b"}


def test_the_constructor_refuses_a_label_given_twice():
    # so a label names one vertex, and no lookup picks between two
    with pytest.raises(DuplicateVertex):
        BipartiteGraph({0}, {1}, [(0, 1)], {0: "a", 1: "a"})
    with pytest.raises(DuplicateVertex):
        BipartiteGraph({0, 2}, {1}, [], {0: "a", 1: "b", 2: "a"})


def test_the_constructor_refuses_an_unhashable_label():
    # an unhashable label cannot be checked for uniqueness, nor looked up
    with pytest.raises(DuplicateVertex, match="hashable"):
        BipartiteGraph({0}, {1}, [(0, 1)], {0: ["a"], 1: "b"})
    with pytest.raises(DuplicateVertex, match="hashable"):
        build_graph(1, 1, [(0, 0)], [["a"]], ["b"])


def test_build_graph_checks_labels_and_the_budget_before_edge_indices():
    # the index pairs are checked as the constructor reads them, so the
    # label and budget errors come first
    with pytest.raises(DuplicateVertex):
        build_graph(1, 1, [(5, 0)], ["x"], ["x"])
    with pytest.raises(IndexOutOfRange, match="label sequences"):
        build_graph(2, 1, [(5, 0)], ["only-one"], ["r"])
    with pytest.raises(BudgetExceeded):
        build_graph(1, Limit.VERTICES.value, [(5, 0)])


def test_build_graph_copies_no_edge_list():
    # a complete 300+300 graph: a list of its 90,000 id pairs peaked at
    # 8.4 MiB, while the graph holds about 0.1 MiB of masks
    edges = [(i, j) for i in range(300) for j in range(300)]
    tracemalloc.start()
    try:
        g = build_graph(300, 300, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g._adjacency[0] == ((1 << 300) - 1) << 300
    assert peak < 2 ** 20


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
    top = Limit.VERTICES.value
    g = BipartiteGraph({0}, {top - 1}, [(0, top - 1)])
    assert g.neighbors(0) == {top - 1}
    with pytest.raises(BudgetExceeded, match=f"{top:,} vertices"):
        BipartiteGraph({0}, {top}, [(0, top)])
    with pytest.raises(BudgetExceeded):
        build_graph(1, top, [])
    assert top == 20_000


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
    with pytest.raises(UnknownVertex):  # 2.0 == 2, but no vertex id
        induced_subgraph(p4, {0, 2.0})


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


def assert_views(g, ref):
    """Every view of ``g`` equals, and has the type of, what ``ref``, its
    constructor's input, describes."""
    for name in ("left", "right", "vertices", "edges"):
        view = getattr(g, name)
        assert type(view) is frozenset
        assert view == getattr(ref, name)
    assert type(g.u_side) is frozenset
    assert g.u_side == ref.u_side()
    assert type(g.labels) is dict
    assert g.labels == ref.labels


# graphs possibly disconnected, with isolated vertices and with either
# side the larger, which build_graph swaps
SIDE_ARGS = graph_args(max_side=5, min_edges=0)


@given(SIDE_ARGS, st.data())
def test_the_views_read_back_the_constructor_input(args, data):
    g = build_graph(*args)
    ref = given_build(*args)
    assert_views(g, ref)
    # an induced subgraph, whose ids have gaps
    kept = data.draw(st.sets(st.sampled_from(sorted(ref.vertices))))
    assert_views(induced_subgraph(g, kept), ref.induced(kept))


def test_the_views_of_a_swapped_build_read_back_its_input():
    args = (3, 2, [(0, 0), (1, 0), (2, 1)], ["a", "b", "c"], ["d", "e"])
    g = build_graph(*args)
    assert g.left == {3, 4}  # the given right side
    assert_views(g, given_build(*args))
    assert_views(induced_subgraph(g, {0, 2, 4}),
                 given_build(*args).induced({0, 2, 4}))


@st.composite
def structures(draw):
    """A graph's structure: up to 6 of the ids 0..23, a side for each,
    and a set of (left, right) edges.  Ids 8 apart collide in a small
    set's table, so the order in which a set of them is iterated may
    follow the order they were given in."""
    ids = draw(st.lists(st.integers(0, 23), min_size=6, max_size=6,
                        unique=True))
    sides = draw(st.lists(st.sampled_from("LR-"), min_size=6, max_size=6))
    left = [v for v, side in zip(ids, sides) if side == "L"]
    right = [v for v, side in zip(ids, sides) if side == "R"]
    edges = draw(st.sets(st.sampled_from(
        [(u, v) for u in left for v in right] or [None])))
    edges.discard(None)
    return frozenset(left), frozenset(right), frozenset(edges)


@st.composite
def inputs(draw, structure):
    """One constructor input for ``structure``: the vertices and edges
    in a drawn order, each edge's ends in either order, and labels of
    any kind."""
    left, right, edges = structure
    pairs = [e if draw(st.booleans()) else e[::-1]
             for e in draw(st.permutations(sorted(edges)))]
    labels = draw(st.one_of(
        st.none(),
        st.builds(lambda tags: dict(zip(sorted(left | right), tags)),
                  st.lists(st.text(max_size=2), min_size=6,
                           max_size=6, unique=True))))
    return (draw(st.permutations(sorted(left))),
            draw(st.permutations(sorted(right))), pairs, labels)


@given(st.data())
def test_graphs_are_equal_exactly_when_their_structures_are(data):
    first = data.draw(structures())
    # the same structure again, or another drawn one, which may match it
    second = first if data.draw(st.booleans()) else data.draw(structures())
    g = BipartiteGraph(*data.draw(inputs(first)))
    h = BipartiteGraph(*data.draw(inputs(second)))
    # and a copy built from the masks, whose ids come in ascending order
    copy = induced_subgraph(g, g.vertices)
    assert copy == g and hash(copy) == hash(g)
    assert (g == h) == (first == second)
    if first == second:
        assert hash(g) == hash(h)


@given(SIDE_ARGS)
def test_procedure_sides_match_the_per_component_definition(args):
    g = build_graph(*args)
    ref = given_build(*args)
    assert g.u_side == ref.u_side()
    assert g.vertices - g.u_side == ref.vertices - ref.u_side()


@given(SIDE_ARGS, st.data())
def test_components_of_a_vertex_subset_are_its_induced_subgraphs(args, data):
    g = build_graph(*args)
    ref = given_build(*args)
    s = data.draw(st.sets(st.sampled_from(sorted(ref.vertices))))
    h = induced_subgraph(g, s)
    comps = connected_components(g, s)
    # a partition of s, in least-vertex order, into the components of h
    assert [c.vertices for c in comps] == ref.induced(s).components()
    for c in comps:
        assert c == induced_subgraph(h, c.vertices)
        assert c.labels == {v: ref.labels[v] for v in c.vertices}


def holds_edges(value):
    """Whether ``value`` is a set, or a collection holding tuples."""
    if isinstance(value, (set, frozenset)):
        return True
    if isinstance(value, dict):
        value = [*value, *value.values()]
    return isinstance(value, (tuple, list)) and any(
        isinstance(x, tuple) for x in value)


def test_a_graph_stores_its_masks_and_no_sets():
    # the graphs of the 8-vertex corpus, each with its maximum matching
    # kept, as the corpus walk holds them
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graphs = connected_bipartite_graphs(8)
        for g in graphs:
            maximum_matching(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # about 4 KB a graph when the sides, the edges and the labels were
    # stored beside the masks
    assert held / len(graphs) < 1500
    for g in graphs:
        for slot in BipartiteGraph.__slots__:
            value = getattr(g, slot, None)
            if slot == "_maximum":
                # M*, a tuple of its edges, is the one collection of edges
                assert type(value) is tuple
                assert all(type(e) is tuple and len(e) == 2 for e in value)
            else:
                assert not holds_edges(value), slot
