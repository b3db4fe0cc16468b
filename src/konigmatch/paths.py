"""Augmenting-path structures and the classification of maximal matchings.

For an augmenting path P, the structure graph collects every augmenting
path (from an unsaturated U-vertex) sharing at least one vertex with P.
Two truncations isolate the part responsible for cover-size loss: the
"hat" cuts away everything below the highest point where a path from a
different root first joins P (``hat_vertices``), and the "check" keeps
the part of the structure that is still reachable by alternating paths
once P has been augmented.

A path is a tuple of vertex ids, from one unsaturated end to the
other.  ``is_augmenting_path`` judges a path given from outside; the
enumerator's depth-first search finds only augmenting paths, so its
paths are not judged again.

``path_structures(m)`` enumerates the augmenting paths of ``m`` once
and builds every structure from that one list, lazily.  A structure
stores its matching, its base path, its family, their vertex union and
Z(M △ P), so K(M △ P) = U △ Z needs no second augmentation; the
stranded set and the hat's cut vertex are derived when read.
Structures are vertex sets only: no graph is built for them, and no
matching either, since Z(M △ P) is walked over M's partner map with
P's edges flipped.

``classify_matching`` enumerates no paths: it grows M to a maximum
matching, and ``verify_classification_witness`` checks its witness,
every path included.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import NotMaximal, PathExplosion
from .graph import procedure_sides
from .konig import _alternating_closure, is_vertex_cover, konig_vertices
from .matching import Matching, is_maximal, maximize

# building structures is quadratic in the path count; the corpus has at
# most 64 paths per maximal matching at 10 vertices and 128 at 11
DEFAULT_PATH_LIMIT = 4096


@dataclass(frozen=True)
class PathStructure:
    """The union of all augmenting paths vertex-wise intersecting a base path.

    A structure stores what defines it: the ``matching`` M, the
    ``family`` of its augmenting paths meeting ``base_path``, their
    vertex union ``vertices``, and ``z_after``, the
    alternating-reachability set Z(M △ P) once the base path P has been
    augmented.  ``stranded`` and ``hat_cut_vertex`` are derived on each
    read.
    """

    matching: Matching
    base_path: tuple[int, ...]
    family: tuple[tuple[int, ...], ...]
    vertices: frozenset[int]
    z_after: frozenset[int]

    @property
    def stranded(self) -> frozenset[int]:
        """The unsaturated V-vertices outside the check part, which
        augmenting the base path strands; only the structure sweep reads
        them."""
        m = self.matching
        v_side = procedure_sides(m.graph)[1]
        # the partner map's keys are the saturated vertices
        return ((self.vertices - self.z_after) & v_side).difference(
            m._partner)

    @property
    def hat_cut_vertex(self) -> int | None:
        """v̂: the highest first-intersection with the base path over the
        family paths that run from a different unsaturated root to its
        endpoint; None when every such path starts at its own root."""
        p = self.base_path
        others = [q for q in _representatives(p, self.family)
                  if q[0] != p[0]]
        if not others:
            return None
        rank = {v: i for i, v in enumerate(p)}
        # a representative shares p's endpoint, so each has a first join
        joins = [min((v for v in q if v in rank),
                     key=rank.__getitem__)
                 for q in others]
        return max(joins, key=rank.__getitem__)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of the maximal-matching classification, with its proof.

    When ``is_minimum`` is true, ``witness`` holds |K(M)| − |M| pairwise
    vertex-disjoint augmenting paths of M; when it is false, a vertex
    cover with fewer vertices than K(M).
    """

    is_minimum: bool
    witness: tuple[tuple[int, ...], ...] | frozenset[int]


def is_augmenting_path(m: Matching, path: Sequence[int]) -> bool:
    """Whether ``path`` is an augmenting path of ``m``: at least two
    vertices, all distinct, both ends unsaturated, consecutive vertices
    adjacent, and the edges alternating out of and into ``m``, so that
    M △ P is a matching one edge larger."""
    g = m.graph
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if m.saturates(path[0]) or m.saturates(path[-1]):
        return False
    # unsaturated ends put the first and last edges outside M, so
    # alternation also gives an odd edge count
    for i, (a, b) in enumerate(zip(path, path[1:])):
        e = g.edge_key(a, b)
        if e not in g.edges or (e in m.edges) != (i % 2 == 1):
            return False
    return True


def enumerate_augmenting_paths(m: Matching) -> list[tuple[int, ...]]:
    """All simple augmenting paths starting at unsaturated U-vertices.

    Depth-first with an explicit stack, so long paths need no recursion.
    Roots and neighbours are taken in ascending order and a path is never
    extended past an unsaturated vertex, so each path is emitted once, in
    lexicographic vertex-sequence order.  More than
    ``DEFAULT_PATH_LIMIT`` paths raises ``PathExplosion``.
    """
    g = m.graph
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
                    if len(found) > DEFAULT_PATH_LIMIT:
                        raise PathExplosion(f"more than {DEFAULT_PATH_LIMIT}"
                                            " augmenting paths")
                    continue
                # z is never on the path: the root is free, and every
                # other U-vertex on it is the partner of a V-vertex on it,
                # while y, z's partner, is off it
                path += (y, z)
                on_path.update((y, z))
                stack.append(iter(sorted(g.neighbors(z))))
                break
            else:
                stack.pop()
                if stack:
                    on_path.difference_update(path[-2:])
                    del path[-2:]
    # each path is simple, alternates and joins two unsaturated vertices
    # by construction, so it needs no second check
    return found


def path_structures(m: Matching) -> Iterator[PathStructure]:
    """The structure of each augmenting path of ``m``, in enumeration
    order: the union of every augmenting path sharing at least one
    vertex with it (including the path itself).

    The paths and their vertex sets are built once, on the first draw,
    and shared by all the structures; each structure is built when it is
    drawn.
    """
    paths = enumerate_augmenting_paths(m)
    vertex_sets = [frozenset(p) for p in paths]
    roots = m.unsaturated(procedure_sides(m.graph)[0])
    for p, p_vertices in zip(paths, vertex_sets):
        family = []
        vertices: set[int] = set()
        for q, q_vertices in zip(paths, vertex_sets):
            if not p_vertices.isdisjoint(q_vertices):
                family.append(q)
                vertices |= q_vertices
        yield PathStructure(m, p, tuple(family), frozenset(vertices),
                            _z_after(m, p, roots))


def _z_after(m: Matching, p: tuple[int, ...],
             roots: list[int]) -> frozenset[int]:
    """Z(M △ P) without building M △ P: the alternating closure over M's
    partner map with P's edges flipped, from ``roots``, the unsaturated
    U-vertices of M, less P's root (P's other end is a V-vertex)."""
    partner = dict(m._partner)
    # P's edges out of M are its (U, V) steps; they replace M's edges there
    for u, v in zip(p[::2], p[1::2]):
        partner[u] = v
        partner[v] = u
    return frozenset(_alternating_closure(
        m.graph._adjacency, partner, [u for u in roots if u != p[0]]))


def _representatives(p: tuple[int, ...],
                     family: Sequence[tuple[int, ...]],
                     ) -> list[tuple[int, ...]]:
    """Family paths sharing p's final (unsaturated V) endpoint."""
    return [q for q in family if q[-1] == p[-1]]


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
        if bound in q:
            selected.update(q[:q.index(bound) + 1])
    return ps.vertices - selected


def classify_matching(m: Matching) -> ClassificationVerdict:
    """Decide whether Kőnig's procedure on the maximal matching ``m``
    yields a minimum vertex cover, with a witness.

    ``m`` is grown to a maximum matching.  If that is smaller than K(M),
    its Kőnig cover is the witness; otherwise the witness is the
    vertex-disjoint augmenting paths of ``m`` that make up the symmetric
    difference, walked from the left vertices ``m`` leaves free.
    """
    if not is_maximal(m):
        raise NotMaximal("classification applies to maximal matchings only")
    grown = maximize(m)
    if len(grown) < len(konig_vertices(m)):
        return ClassificationVerdict(False, konig_vertices(grown))
    paths = []
    for u in m.unsaturated(m.graph.left):
        if grown.saturates(u):
            walk = [u, grown.partner(u)]
            while m.saturates(walk[-1]):
                x = m.partner(walk[-1])
                walk += (x, grown.partner(x))
            paths.append(tuple(walk))
    return ClassificationVerdict(True, tuple(paths))


def verify_classification_witness(m: Matching,
                                  verdict: ClassificationVerdict) -> bool:
    """Whether ``verdict.witness`` proves ``verdict`` for ``m``, by weak
    duality: |K(M)| − |M| vertex-disjoint augmenting paths of ``m`` grow
    it to |K(M)| edges, so the cover K(M) is minimum; a smaller cover
    shows it is not.  Every path is judged by ``is_augmenting_path``.  A
    witness of the wrong shape (a cover that is not a frozenset, paths
    that are not a tuple of tuples) is answered False, not raised on.
    """
    g = m.graph
    k = konig_vertices(m)
    witness = verdict.witness
    if not verdict.is_minimum:
        return (isinstance(witness, frozenset) and witness <= g.vertices
                and is_vertex_cover(g, witness) and len(witness) < len(k))
    if not isinstance(witness, tuple):
        return False
    used: set[int] = set()
    for p in witness:
        if not (isinstance(p, tuple) and is_augmenting_path(m, p)
                and used.isdisjoint(p)):
            return False
        used.update(p)
    return len(m) + len(witness) == len(k) and is_vertex_cover(g, k)
