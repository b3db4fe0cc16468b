"""Augmenting-path structures and the classification of maximal matchings.

For an augmenting path P, the structure graph collects every augmenting
path (from an unsaturated U-vertex) sharing at least one vertex with P.
Two truncations isolate the part responsible for cover-size loss: the
"hat" cuts away everything below the highest point where a path from a
different root first joins P (``hat_vertices``), and the "check" keeps
the part of the structure that is still reachable by alternating paths
once P has been augmented.  The classification rests on a conjecture: a
maximal matching maps to a minimum cover exactly when no structure
strands two unsaturated V-vertices outside its check part
(``PathStructure.stranded``).  It fails from 9 vertices up, where a
cover can need two disjoint augmentations to shrink; the strict xfail in
``tests/test_paths.py`` holds the smallest such case.

The augmenting paths of a matching are enumerated once, by the caller
of ``path_structure``, and every structure is built from that one list.
A structure stores its family, their vertex union and Z(M △ P), so
K(M △ P) = U △ Z needs no second augmentation; the stranded set and the
hat's cut vertex are derived when read.  Structures are vertex sets
only: no graph is built for them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    NotAugmenting,
    NotMaximal,
    PathExplosion,
)
from .graph import BipartiteGraph, procedure_sides
from .konig import z_set
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

    A structure stores what defines it: the ``family`` of paths meeting
    ``base_path``, their vertex union ``vertices``, and ``z_after``, the
    alternating-reachability set Z(M △ P) once the base path P has been
    augmented.  ``stranded`` and ``hat_cut_vertex`` are derived on each
    read.
    """

    graph: BipartiteGraph
    base_path: AlternatingPath
    family: tuple[AlternatingPath, ...]
    vertices: frozenset[int]
    z_after: frozenset[int]

    @property
    def stranded(self) -> frozenset[int]:
        """The unsaturated V-vertices outside the check part: those that
        augmenting the base path strands."""
        m = self.base_path.matching
        v_side = procedure_sides(self.graph)[1]
        return frozenset(v for v in (self.vertices - self.z_after) & v_side
                         if not m.saturates(v))

    @property
    def hat_cut_vertex(self) -> int | None:
        """v̂: the highest first-intersection with the base path over the
        family paths that run from a different unsaturated root to its
        endpoint; None when every such path starts at its own root."""
        p = self.base_path
        rank = {v: i for i, v in enumerate(p.vertices)}
        # a representative shares p's endpoint, so each has a first join
        joins = [min((v for v in q.vertices if v in rank),
                     key=rank.__getitem__)
                 for q in _representatives(p, self.family)
                 if q.vertices[0] != p.vertices[0]]
        return max(joins, key=rank.__getitem__, default=None)


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
    """Build the structure of ``p``: the union of every augmenting path
    sharing at least one vertex with it (including ``p`` itself).

    ``paths`` is ``enumerate_augmenting_paths(g, m)``, enumerated once by
    the caller and shared by the structures of all its paths.  A ``p``
    missing from ``paths`` raises ``NotAugmenting``, and so does one of
    another matching, from ``augment``.
    """
    _require_same_graph(g, m)
    p_vertices = set(p.vertices)
    family = [q for q in paths if not p_vertices.isdisjoint(q.vertices)]
    # every listed path is augmenting for m, so p must be one of them
    if p not in family:
        raise NotAugmenting("base path is not a path of this matching")
    vertices: set[int] = set()
    for q in family:
        vertices.update(q.vertices)
    return PathStructure(g, p, tuple(family), frozenset(vertices),
                         z_set(g, augment(m, p)))


def _representatives(p: AlternatingPath,
                     family: Sequence[AlternatingPath],
                     ) -> list[AlternatingPath]:
    """Family paths sharing p's final (unsaturated V) endpoint."""
    end = p.vertices[-1]
    return [q for q in family if q.vertices[-1] == end]


def hat_vertices(ps: PathStructure) -> frozenset[int]:
    """The vertices of Ĝ: the structure with everything up to v̂ removed.

    The prefixes cut away run along the paths into p's endpoint that pass
    through v̂.  With no path from a second root nothing is cut away.
    """
    bound = ps.hat_cut_vertex
    if bound is None:
        return ps.vertices
    selected: set[int] = set()
    for q in _representatives(ps.base_path, ps.family):
        if bound in q.vertices:
            cut = q.vertices.index(bound)
            selected.update(q.vertices[:cut + 1])
    return ps.vertices - selected


def classify_matching(
    g: BipartiteGraph,
    m: Matching,
    limit: int = DEFAULT_PATH_LIMIT,
) -> ClassificationVerdict:
    """Decide whether Kőnig's procedure on the maximal matching ``m``
    yields a minimum vertex cover, without computing cover sizes.

    The verdict is "not minimum" when some augmenting path's structure
    strands two or more unsaturated V-vertices outside its check part
    (``PathStructure.stranded``).  That this is exact is a conjecture
    that fails from 9 vertices up (the strict xfail in
    ``tests/test_paths.py``).
    """
    if not is_maximal(g, m):
        raise NotMaximal("classification applies to maximal matchings only")
    paths = enumerate_augmenting_paths(g, m, limit)
    for p in paths:
        stranded = path_structure(g, m, p, paths).stranded
        if len(stranded) >= 2:
            return ClassificationVerdict(False, (p, stranded))
    return ClassificationVerdict(True, None)

