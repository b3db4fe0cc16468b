"""The graph's neighbour masks and every mask test read against the set
definitions: neighbours from the edge list, K(M) from an alternating
BFS over vertex sets, maximality by an edge scan, and the cover and
minimality verdicts by their definitions.  The inputs are small drawn
graphs, induced subgraphs of them (sparse vertex ids), a 5000-vertex
path and a seeded sparse 1000+1000 graph."""

import random

from hypothesis import given, strategies as st

from konigmatch import (
    Matching,
    build_graph,
    induced_subgraph,
    is_maximal,
    is_minimal_cover,
    is_vertex_cover,
    konig_cover,
    konig_vertices,
    maximum_matching,
    z_set,
)
from konigmatch.experiments import random_maximal_matching
from konigmatch.oracle import all_matchings

from conftest import graphs


def edge_neighbors(g):
    """Each vertex's neighbours, read off the edge list."""
    near = {v: set() for v in g.vertices}
    for u, v in g.edges:
        near[u].add(v)
        near[v].add(u)
    return near


def reference_konig(g, m, near):
    """U △ Z, with Z walked over vertex sets: from a U-vertex every edge
    is followed, from a V-vertex its matching edge."""
    z = {u for u in g.u_side if not m.saturates(u)}
    queue = list(z)
    for x in queue:  # the list grows while it is walked: a BFS
        if x in g.u_side:
            reached = near[x]
        else:
            reached = {m.partner(x)} - {None}
        for y in reached - z:
            z.add(y)
            queue.append(y)
    return frozenset(g.u_side ^ z)


def covers(g, s):
    return all(u in s or v in s for u, v in g.edges)


def minimal_cover(g, s, near):
    """A cover from which no single vertex can be dropped: dropping r
    uncovers an edge iff r has a neighbour outside s."""
    return covers(g, s) and all(near[r] - s for r in s)


def check(g, matchings, rng):
    """Compare every mask reading on ``g`` with its set definition, for
    each of ``matchings`` and, as cover candidates, each K(M), K(M) less
    a vertex and a random vertex subset."""
    near = edge_neighbors(g)
    for v in g.vertices:
        assert g.neighbors(v) == near[v]
    vertices = sorted(g.vertices)
    for m in matchings:
        k = konig_vertices(m)
        assert k == reference_konig(g, m, near)
        assert z_set(m) == g.u_side ^ k
        assert is_maximal(m) == all(m.saturates(u) or m.saturates(v)
                                    for u, v in g.edges)
        cover = konig_cover(m)
        assert cover.vertices == k
        assert cover.is_cover == covers(g, k)
        assert cover.is_minimal == minimal_cover(g, k, near)
        candidates = [k, frozenset(rng.sample(vertices,
                                              rng.randrange(len(vertices))))]
        if k:
            candidates.append(k - {rng.choice(sorted(k))})
        for s in candidates:
            assert is_vertex_cover(g, s) == covers(g, s)
            assert is_minimal_cover(g, s) == minimal_cover(g, s, near)


@given(graphs(), st.integers(0, 2 ** 32))
def test_the_masks_agree_with_the_sets_on_drawn_graphs(g, seed):
    check(g, all_matchings(g), random.Random(seed))


@given(graphs(), st.data())
def test_the_masks_agree_with_the_sets_on_sparse_ids(g, data):
    # an induced subgraph keeps its parent's ids, so its masks have gaps
    kept = data.draw(st.sets(st.sampled_from(sorted(g.vertices)),
                             min_size=1))
    h = induced_subgraph(g, kept)
    check(h, all_matchings(h), random.Random(data.draw(st.integers())))


def test_the_masks_agree_with_the_sets_on_a_5000_vertex_path():
    half = 2500
    g = build_graph(half, half, [(i, i) for i in range(half)]
                    + [(i + 1, i) for i in range(half - 1)])
    # the matching that leaves both ends free, a maximal one, the
    # maximum one grown from it and the empty one
    shifted = Matching(g, [(i + 1, half + i) for i in range(half - 1)])
    rng = random.Random(5000)
    maximal = random_maximal_matching(g, rng)
    check(g, [shifted, maximal, maximum_matching(g, maximal),
              Matching(g, ())], rng)


def test_the_masks_agree_with_the_sets_on_a_sparse_1000_vertex_side():
    rng = random.Random(1000)
    n = 1000
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
    g = build_graph(n, n, sorted(edges))
    maximal = random_maximal_matching(g, rng)
    check(g, [maximal, maximum_matching(g, maximal), Matching(g, ())], rng)
