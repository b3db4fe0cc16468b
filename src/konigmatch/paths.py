"""Augmenting-path structures and the classification of maximal matchings.

For an augmenting path P, the structure graph collects every augmenting
path (from an unsaturated U-vertex) sharing at least one vertex with P.
Two truncations isolate the part responsible for cover-size loss: the
"hat" cuts away everything below the highest point where a path from a
different root first joins P, and the "check" keeps the part of the
structure that is still reachable by alternating paths once P has been
augmented.  The classification rests on a conjecture: a maximal matching
maps to a minimum cover exactly when no structure minus its check part
keeps two unsaturated V-vertices.  It fails from 9 vertices up, where a
cover can need two disjoint augmentations to shrink; the strict xfail in
``tests/test_paths.py`` holds the smallest such case.

The augmenting paths of a matching are enumerated once, by the caller
of ``path_structure``, and every structure is built from that one list.
A structure holds vertex and edge sets, plus Z(M △ P) for the augmented
matching, so K(M △ P) = U △ Z needs no second augmentation; its graph,
and the hat and check graphs, are built only when asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    NotAugmenting,
    NotMaximal,
    PathExplosion,
)
from .graph import BipartiteGraph, Edge, procedure_sides
from .konig import konig_vertices, z_set
from .matching import (
    AlternatingPath,
    Matching,
    _require_same_graph,
    augment,
    is_maximal,
)

DEFAULT_PATH_LIMIT = 10 ** 6


@dataclass(frozen=True)
class PathStructure:
    """The union of all augmenting paths vertex-wise intersecting a base path.

    ``vertices`` and ``edges`` are the union of the family's paths; the
    ``subgraph`` property builds them into a graph on request.
    ``hat_cut_vertex`` is the V-vertex bounding the hat truncation (None
    when no path from a different root reaches the base path's endpoint).
    ``z_after`` is Z(M △ P), the alternating-reachability set once the
    base path P has been augmented.  ``check_vertices`` is its part
    inside the structure: the surviving region.  ``check_cut_vertex`` is
    the matched U-vertex on the boundary of that region, when one exists.
    """

    graph: BipartiteGraph
    base_path: AlternatingPath
    family: tuple[AlternatingPath, ...]
    vertices: frozenset[int]
    edges: frozenset[Edge]
    hat_cut_vertex: int | None
    check_cut_vertex: int | None
    check_vertices: frozenset[int]
    z_after: frozenset[int]

    @property
    def subgraph(self) -> BipartiteGraph:
        """The structure as a graph, built anew on each access."""
        return _structure_graph(self, self.vertices)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of the maximal-matching classification.

    When ``is_minimum`` is false, ``witness`` holds an augmenting path and
    the (≥ 2) unsaturated V-vertices left outside the check part of its
    structure.
    """

    is_minimum: bool
    witness: tuple[AlternatingPath, frozenset[int]] | None


def enumerate_augmenting_paths(
    g: BipartiteGraph,
    m: Matching,
    limit: int = DEFAULT_PATH_LIMIT,
) -> list[AlternatingPath]:
    """All simple augmenting paths starting at unsaturated U-vertices.

    Depth-first with an explicit stack, so long paths need no recursion;
    results are deduplicated and returned in lexicographic vertex-sequence
    order.  More than ``limit`` paths raises ``PathExplosion``.
    """
    _require_same_graph(g, m)
    if limit <= 0:
        raise PathExplosion("limit must be positive")
    u_side, _ = procedure_sides(g)
    found: list[tuple[int, ...]] = []
    for u in m.unsaturated(u_side):
        path = [u]
        on_path = {u}
        # one iterator over the sorted neighbours of each U-vertex on path
        stack = [iter(sorted(g.neighbors(u)))]
        while stack:
            for y in stack[-1]:
                # the matched edge at path[-1] leads back to path[-2]
                if y in on_path:
                    continue
                z = m.partner(y)
                if z is None:
                    found.append((*path, y))
                    if len(found) > limit:
                        raise PathExplosion(
                            f"more than {limit} augmenting paths")
                    continue
                if z in on_path:
                    continue
                path += (y, z)
                on_path.update((y, z))
                stack.append(iter(sorted(g.neighbors(z))))
                break
            else:
                stack.pop()
                if stack:
                    on_path.difference_update(path[-2:])
                    del path[-2:]
    return [AlternatingPath(vs, m) for vs in sorted(set(found))]


def path_structure(
    g: BipartiteGraph,
    m: Matching,
    p: AlternatingPath,
    paths: Sequence[AlternatingPath],
) -> PathStructure:
    """Build the structure graph of ``p``: the union of every augmenting
    path sharing at least one vertex with it (including ``p`` itself).

    ``paths`` is ``enumerate_augmenting_paths(g, m)``, enumerated once by
    the caller and shared by the structures of all its paths.
    """
    _require_same_graph(g, m)
    if not p.augmenting or p.matching != m:
        raise NotAugmenting("base path is not augmenting for this matching")
    p_vertices = set(p.vertices)
    family = [q for q in paths if not p_vertices.isdisjoint(q.vertices)]
    if p not in family:
        raise NotAugmenting("base path is not a path of this matching")
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for q in family:
        vertices.update(q.vertices)
        edges.update(q.edges)
    hat_v = _hat_cut_vertex(p, family)
    z_after = z_set(g, augment(m, p))
    check_set = z_after & vertices
    check_u = _check_cut_vertex(m, p, vertices, check_set)
    return PathStructure(g, p, tuple(family), frozenset(vertices),
                         frozenset(edges), hat_v, check_u, check_set,
                         z_after)


def _structure_graph(ps: PathStructure,
                     vertices: frozenset[int]) -> BipartiteGraph:
    """The subgraph of the structure induced by ``vertices``."""
    g = ps.graph
    # the edges come from validated paths, so no check against g is needed
    return BipartiteGraph(g.left & vertices, g.right & vertices,
                          [(u, v) for u, v in ps.edges
                           if u in vertices and v in vertices],
                          g.labels)


def meet_join(p: AlternatingPath,
              q: AlternatingPath) -> tuple[int | None, int | None]:
    """First and last common vertex of two paths, under p's order.

    Returns ``(join, meet)``; both are ``None`` when the paths are
    vertex-disjoint.  The operations are not symmetric in general: the
    two induced orders can disagree on the intersection (though never as
    exact reverses), so the first argument fixes the order used.
    """
    if p.matching != q.matching:
        raise NotAugmenting("paths alternate against different matchings")
    common = set(p.vertices) & set(q.vertices)
    if not common:
        return (None, None)
    rank = {v: i for i, v in enumerate(p.vertices)}
    return (min(common, key=rank.__getitem__),
            max(common, key=rank.__getitem__))


def _representatives(p: AlternatingPath,
                     family: Sequence[AlternatingPath],
                     ) -> list[AlternatingPath]:
    """Family paths sharing p's final (unsaturated V) endpoint."""
    end = p.vertices[-1]
    return [q for q in family if q.vertices[-1] == end]


def _hat_cut_vertex(p: AlternatingPath,
                    family: Sequence[AlternatingPath]) -> int | None:
    """v̂: the highest first-intersection with p over family paths that
    run from a different unsaturated root to p's endpoint.

    ``None`` when every such path starts at p's own root.
    """
    root = p.vertices[0]
    others = [q for q in _representatives(p, family)
              if q.vertices[0] != root]
    if not others:
        return None
    rank = {v: i for i, v in enumerate(p.vertices)}
    joins = [meet_join(p, q)[0] for q in others]
    return max(joins, key=rank.__getitem__)


def _check_cut_vertex(m: Matching, p: AlternatingPath,
                      structure_vertices: set[int],
                      check_set: frozenset[int]) -> int | None:
    """ǔ: the matched U-vertex just outside the surviving region whose
    partner v̌ lies inside it, taken as low as possible along p."""
    rank = {v: i for i, v in enumerate(p.vertices)}
    candidates = []
    for x, y in sorted(m.edges):
        for inside, outside in ((x, y), (y, x)):
            if (inside in check_set and outside in structure_vertices
                    and outside not in check_set):
                candidates.append((rank.get(inside, len(rank)), inside,
                                   outside))
    if not candidates:
        return None
    return min(candidates)[2]


def hat_vertices(ps: PathStructure) -> frozenset[int]:
    """The vertices of Ĝ: the structure with everything up to v̂ removed.

    The prefixes cut away run along the paths into p's endpoint that pass
    through v̂.  With no path from a second root nothing is cut away.
    """
    if ps.hat_cut_vertex is None:
        return ps.vertices
    bound = ps.hat_cut_vertex
    selected: set[int] = set()
    for q in _representatives(ps.base_path, ps.family):
        if bound in q.vertices:
            cut = q.vertices.index(bound)
            selected.update(q.vertices[:cut + 1])
    return ps.vertices - selected


def hat_subgraph(ps: PathStructure) -> BipartiteGraph:
    """Ĝ as a graph: the structure induced on ``hat_vertices(ps)``."""
    return _structure_graph(ps, hat_vertices(ps))


def check_subgraph(ps: PathStructure) -> BipartiteGraph:
    """Ǧ: the induced part of the structure that stays reachable by
    alternating paths once the base path has been augmented.

    Everything outside it is consumed by the augmentation; counting the
    unsaturated V-vertices left outside drives the classification.
    """
    return _structure_graph(ps, ps.check_vertices)


def classify_matching(
    g: BipartiteGraph,
    m: Matching,
    limit: int = DEFAULT_PATH_LIMIT,
) -> ClassificationVerdict:
    """Decide whether Kőnig's procedure on the maximal matching ``m``
    yields a minimum vertex cover, without computing cover sizes.

    The verdict is "not minimum" when some augmenting path's structure,
    minus its check part, keeps two or more unsaturated V-vertices.  That
    this is exact is a conjecture that fails from 9 vertices up (the
    strict xfail in ``tests/test_paths.py``).
    """
    if not is_maximal(g, m):
        raise NotMaximal("classification applies to maximal matchings only")
    _, v_side = procedure_sides(g)
    paths = enumerate_augmenting_paths(g, m, limit)
    for p in paths:
        ps = path_structure(g, m, p, paths)
        outside = ps.vertices - ps.check_vertices
        unsat = frozenset(v for v in outside & v_side
                          if not m.saturates(v))
        if len(unsat) >= 2:
            return ClassificationVerdict(False, (p, unsat))
    return ClassificationVerdict(True, None)


def cover_delta_under_augment(
    g: BipartiteGraph,
    m: Matching,
    p: AlternatingPath,
) -> int:
    """|K(m)| − |K(m △ p)| for an augmenting path ``p``."""
    _require_same_graph(g, m)
    if not p.augmenting or p.matching != m:
        raise NotAugmenting("path is not augmenting for this matching")
    return (len(konig_vertices(g, m))
            - len(konig_vertices(g, augment(m, p))))
