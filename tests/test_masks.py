"""The graph's neighbour masks and every mask test read against the set
definitions: neighbours from the edges the constructor was given, K(M)
from an alternating BFS over vertex sets, maximality by an edge scan,
and the cover and minimality verdicts by their definitions.  The
references read the constructor's input (``conftest.Given``), never the
graph's views, which are built from the masks under test.  The inputs
are small drawn graphs, induced subgraphs of them (sparse vertex ids), a
5000-vertex path and a seeded sparse 1000+1000 graph."""

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

from conftest import given_build, graph_args


def reference_konig(u_side, m, near):
    """U △ Z, with Z walked over vertex sets: from a U-vertex every edge
    is followed, from a V-vertex its matching edge."""
    z = {u for u in u_side if not m.saturates(u)}
    queue = list(z)
    for x in queue:  # the list grows while it is walked: a BFS
        if x in u_side:
            reached = near[x]
        else:
            reached = {m.partner(x)} - {None}
        for y in reached - z:
            z.add(y)
            queue.append(y)
    return frozenset(u_side ^ z)


def covers(edges, s):
    return all(u in s or v in s for u, v in edges)


def minimal_cover(edges, s, near):
    """A cover from which no single vertex can be dropped: dropping r
    uncovers an edge iff r has a neighbour outside s."""
    return covers(edges, s) and all(near[r] - s for r in s)


def check(g, ref, matchings, rng):
    """Compare every mask reading on ``g`` with its set definition on
    ``ref``, what ``g``'s constructor was given, for each of
    ``matchings`` and, as cover candidates, each K(M), K(M) less a vertex
    and a random vertex subset."""
    near = ref.neighbors()
    edges = ref.edges
    u_side = ref.u_side()
    for v in ref.vertices:
        assert g.neighbors(v) == near[v]
    vertices = sorted(ref.vertices)
    for m in matchings:
        k = konig_vertices(m)
        assert k == reference_konig(u_side, m, near)
        assert z_set(m) == u_side ^ k
        assert is_maximal(m) == all(m.saturates(u) or m.saturates(v)
                                    for u, v in edges)
        cover = konig_cover(m)
        assert cover.vertices == k
        assert cover.is_cover == covers(edges, k)
        assert cover.is_minimal == minimal_cover(edges, k, near)
        candidates = [k, frozenset(rng.sample(vertices,
                                              rng.randrange(len(vertices))))]
        if k:
            candidates.append(k - {rng.choice(sorted(k))})
        for s in candidates:
            assert is_vertex_cover(g, s) == covers(edges, s)
            assert is_minimal_cover(g, s) == minimal_cover(edges, s, near)


@given(graph_args(), st.integers(0, 2 ** 32))
def test_the_masks_agree_with_the_sets_on_drawn_graphs(args, seed):
    g = build_graph(*args)
    check(g, given_build(*args), all_matchings(g), random.Random(seed))


@given(graph_args(), st.data())
def test_the_masks_agree_with_the_sets_on_sparse_ids(args, data):
    # an induced subgraph keeps its parent's ids, so its masks have gaps
    ref = given_build(*args)
    kept = data.draw(st.sets(st.sampled_from(sorted(ref.vertices)),
                             min_size=1))
    h = induced_subgraph(build_graph(*args), kept)
    check(h, ref.induced(kept), all_matchings(h),
          random.Random(data.draw(st.integers())))


def test_the_masks_agree_with_the_sets_on_a_5000_vertex_path():
    half = 2500
    args = (half, half, [(i, i) for i in range(half)]
            + [(i + 1, i) for i in range(half - 1)])
    g = build_graph(*args)
    # the matching that leaves both ends free, a maximal one, the
    # maximum one grown from it and the empty one
    shifted = Matching(g, [(i + 1, half + i) for i in range(half - 1)])
    rng = random.Random(5000)
    maximal = random_maximal_matching(g, rng)
    check(g, given_build(*args), [shifted, maximal,
                                  maximum_matching(g, maximal),
                                  Matching(g, ())], rng)


def test_the_masks_agree_with_the_sets_on_a_sparse_1000_vertex_side():
    rng = random.Random(1000)
    n = 1000
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
    args = (n, n, sorted(edges))
    g = build_graph(*args)
    maximal = random_maximal_matching(g, rng)
    check(g, given_build(*args),
          [maximal, maximum_matching(g, maximal), Matching(g, ())], rng)
