"""Augmenting-path structures and the classification of maximal matchings.

For an augmenting path P, the structure graph collects every augmenting
path (from an unsaturated U-vertex) sharing at least one vertex with P.
Two derived sets isolate the part responsible for cover-size loss: the
"hat" cuts away everything below the highest point where a path from a
different root first joins P (the ``hat`` field), and the stranded set
holds the structure's unsaturated V-vertices that alternating paths no
longer reach once P has been augmented.

A path is a tuple of vertex ids, from one unsaturated end to the
other.  ``is_augmenting_path`` judges a path given from outside; the
enumerator's depth-first walk finds only augmenting paths, so its
paths are not judged again.

``path_structures(m)`` enumerates the augmenting paths of ``m`` once and
builds every structure from that one list, lazily; more paths than the
path limit (``errors.Limit.PATHS``) raise ``PathExplosion``.  A
structure stores its matching, its base path, its family, their vertex
union and Z(M △ P), so K(M △ P) = U △ Z needs no second augmentation,
and with them the stranded set, the hat's cut vertex and the hat, each
computed once, as the structure is built.  Structures are vertex sets
only: no graph is built for them, and no matching either, since Z(M △ P)
is walked over M's partner map with P's edges flipped, by the one
alternating closure of ``konig``, from a root mask to a vertex mask
(``_z_after``).

Every structure rule lives in ``_PathMasks``, over vertex masks (ints
with bit v for vertex v; see ``graph``): it enumerates a matching's
paths once, walking each vertex's neighbour mask in ascending order,
groups them by endpoint, and yields per path its family, vertex union,
Z(M △ P), single-root substructure, stranded set, hat cut vertex and
hat.  ``path_structures`` turns each yield into a ``PathStructure`` of
vertex sets; the structure check in ``verify`` reads the same yields as
masks and only compares them, counting its cases by popcount.

``classify_matching`` enumerates no paths: it reads the augmenting
paths of M off M △ M*, where M* is the graph's one maximum matching
(``maximum_matching``), and ``verify_classification_witness`` checks its
witness, every path included.  Both read |K(M)| off the matching's kept
K(M) mask.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .errors import Limit, NotMaximal, UnknownVertex
from .graph import _bits, _covers, _edge, _mask
from .konig import (
    _alternating_closure,
    _konig_mask,
    is_vertex_cover,
    konig_vertices,
)
from .matching import Matching, is_maximal, maximum_matching


@dataclass(frozen=True)
class PathStructure:
    """The union of all augmenting paths vertex-wise intersecting a base path.

    A structure stores the ``matching`` M, the ``family`` of its
    augmenting paths meeting ``base_path``, their vertex union
    ``vertices``, and ``z_after``, the alternating-reachability set
    Z(M △ P) once the base path P has been augmented.  What the paper
    derives from these is computed once, with them: ``stranded``, the
    unsaturated V-vertices of the union outside Z(M △ P), which
    augmenting P strands; ``hat_cut_vertex``, v̂, the highest
    first-intersection with the base path over the family paths that
    run from a different unsaturated root to its endpoint (None when
    every such path starts at its own root); and ``hat``, the vertices
    of Ĝ: the structure with everything up to v̂ removed.  The prefixes
    cut away run along the paths into p's endpoint that pass through v̂;
    with no path from a second root nothing is cut away.
    """

    matching: Matching
    base_path: tuple[int, ...]
    family: tuple[tuple[int, ...], ...]
    vertices: frozenset[int]
    z_after: frozenset[int]
    stranded: frozenset[int]
    hat_cut_vertex: int | None
    hat: frozenset[int]


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
    M △ P is a matching one edge larger.  An unhashable entry names no
    vertex, so it gives False."""
    g = m.graph
    try:
        distinct = len(set(path)) == len(path)
    except TypeError:
        return False
    if len(path) < 2 or not distinct:
        return False
    if m.saturates(path[0]) or m.saturates(path[-1]):
        return False
    # unsaturated ends put the first and last edges outside M, so
    # alternation also gives an odd edge count
    for i, (a, b) in enumerate(zip(path, path[1:])):
        e = _edge(g, a, b)
        if e is None or (e in m.edges) != (i % 2 == 1):
            return False
    return True


def enumerate_augmenting_paths(m: Matching) -> list[tuple[int, ...]]:
    """All simple augmenting paths starting at unsaturated U-vertices.

    Depth-first with an explicit stack, so long paths need no recursion.
    Roots and neighbours are taken in ascending order and a path is never
    extended past an unsaturated vertex, so each path is emitted once, in
    lexicographic vertex-sequence order.  More than
    ``Limit.PATHS`` paths raises ``PathExplosion``.
    """
    limit = Limit.PATHS.value
    adjacency = m.graph._adjacency
    partner = m._partner
    found: list[tuple[int, ...]] = []
    # each U-vertex's neighbours, listed once per call
    ordered: dict[int, list[int]] = {}
    for u in m.unsaturated(_bits(m.graph.u_mask)):
        path = [u]
        on_path = {u}
        # one iterator over the ascending neighbours of each U-vertex on
        # the path
        stack = [_bits(adjacency[u])]
        while stack:
            for y in stack[-1]:
                # the matched edge at path[-1] leads back to path[-2]
                if y in on_path:
                    continue
                z = partner.get(y)
                if z is None:
                    found.append((*path, y))
                    if len(found) > limit:
                        raise Limit.PATHS.refusal(len(found))
                    continue
                # z is never on the path: the root is free, and every
                # other U-vertex on it is the partner of a V-vertex on it,
                # while y, z's partner, is off it
                path += (y, z)
                on_path.update((y, z))
                if z not in ordered:
                    ordered[z] = list(_bits(adjacency[z]))
                stack.append(iter(ordered[z]))
                break
            else:
                stack.pop()
                if stack:
                    on_path.difference_update(path[-2:])
                    del path[-2:]
    # each path is simple, alternates and joins two unsaturated vertices
    # by construction, so it needs no second check
    return found


class _PathMasks:
    """The augmenting paths of a matching, enumerated once, with the
    vertex mask of each: ``masks[i]`` is that of ``paths[i]``."""

    __slots__ = ("matching", "paths", "masks")

    def __init__(self, m: Matching):
        self.matching = m
        self.paths = enumerate_augmenting_paths(m)
        self.masks = [_mask(p) for p in self.paths]

    def structures(self) -> Iterator[tuple[int, list[int], int, int, int,
                                          int, int | None, int]]:
        """Per path P, in enumeration order: its index; its family, the
        ascending indices of the paths sharing a vertex with P, P's own
        included; then, as vertex masks, the family's vertex union,
        Z(M △ P), the single-root substructure (the union of the paths
        sharing P's root and endpoint) and the stranded set; v̂, the
        hat's cut vertex, or None; and the hat's vertex mask."""
        m = self.matching
        paths, masks = self.paths, self.masks
        # the unsaturated U-vertices: U less the partner map's keys
        roots = m.graph.u_mask & ~_mask(m._partner)
        # the paths into each endpoint, with their vertex masks
        into_end: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for q, q_mask in zip(paths, masks):
            into_end.setdefault(q[-1], []).append((q, q_mask))
        # every vertex of a path but its ends is saturated, so the
        # unsaturated V-vertices of a structure are among the endpoints
        free_v = _mask(into_end)
        for i, (p, p_mask) in enumerate(zip(paths, masks)):
            family = [j for j, q_mask in enumerate(masks) if p_mask & q_mask]
            vertices = 0
            for j in family:
                vertices |= masks[j]
            z_after = _z_after(m, p, roots)
            # stranded: the unsaturated V-vertices outside Z(M △ P)
            stranded = vertices & free_v & ~z_after
            # the substructure of the paths into p's endpoint from p's
            # root, and v̂: over those from another root, the latest
            # along p of their first vertices on p
            root = p[0]
            group = into_end[p[-1]]
            sub = 0
            at = -1  # v̂'s index along p
            for q, q_mask in group:
                if q[0] == root:
                    sub |= q_mask
                    continue
                # q shares p's endpoint, so it meets p
                for k, v in enumerate(p):
                    if q_mask >> v & 1:
                        break
                if k > at:
                    at = k
            # the hat: the union less the prefix, up to v̂, of each path
            # into p's endpoint that passes through v̂.  With no path
            # from a second root nothing is cut away
            hat = vertices
            cut = None
            if at >= 0:
                cut = p[at]
                for q, q_mask in group:
                    if q_mask >> cut & 1:
                        hat &= ~_mask(q[:q.index(cut) + 1])
            yield i, family, vertices, z_after, sub, stranded, cut, hat


def path_structures(m: Matching) -> Iterator[PathStructure]:
    """The structure of each augmenting path of ``m``, in enumeration
    order: the union of every augmenting path sharing at least one
    vertex with it (including the path itself).

    The paths and their masks are built once, on the first draw, and
    shared by all the structures; each structure is built when it is
    drawn.
    """
    table = _PathMasks(m)
    paths = table.paths
    for (i, family, vertices, z_after, _, stranded, cut,
         hat) in table.structures():
        yield PathStructure(m, paths[i], tuple(paths[j] for j in family),
                            frozenset(_bits(vertices)),
                            frozenset(_bits(z_after)),
                            frozenset(_bits(stranded)), cut,
                            frozenset(_bits(hat)))


def _z_after(m: Matching, p: tuple[int, ...], roots: int) -> int:
    """Z(M △ P) as a vertex mask, without building M △ P: the
    alternating closure over M's partner map with P's edges flipped,
    from ``roots``, the mask of M's unsaturated U-vertices, less P's
    root (P's other end is a V-vertex)."""
    partner = dict(m._partner)
    # P's edges out of M are its (U, V) steps; they replace M's edges there
    for u, v in zip(p[::2], p[1::2]):
        partner[u] = v
        partner[v] = u
    return _alternating_closure(m.graph._adjacency, partner,
                                roots & ~(1 << p[0]))


def classify_matching(m: Matching) -> ClassificationVerdict:
    """Decide whether Kőnig's procedure on the maximal matching ``m``
    yields a minimum vertex cover, with a witness.

    M* is the graph's one maximum matching, ``maximum_matching``.  If it
    is smaller than K(M), its Kőnig cover is the witness.  Otherwise the
    witness is the augmenting paths of ``m`` among the components of
    M △ M*, walked from the left vertices ``m`` leaves free; a walk that
    ends at a vertex M* leaves free is an even path, not an augmenting
    one, and is skipped.  By Berge, ν − |M| paths remain.
    """
    if not is_maximal(m):
        raise NotMaximal("classification applies to maximal matchings only")
    star = maximum_matching(m.graph)
    if len(star) < _konig_mask(m).bit_count():
        return ClassificationVerdict(False, konig_vertices(star))
    paths = []
    for u in m.unsaturated(_bits(m.graph.left_mask)):
        v = star.partner(u)
        walk = [u, v]
        while v is not None and m.saturates(v):
            x = m.partner(v)
            v = star.partner(x)
            walk += (x, v)
        if v is not None:
            paths.append(tuple(walk))
    return ClassificationVerdict(True, tuple(paths))


def verify_classification_witness(m: Matching,
                                  verdict: ClassificationVerdict) -> bool:
    """Whether ``verdict.witness`` proves ``verdict`` for ``m``, by weak
    duality: |K(M)| − |M| vertex-disjoint augmenting paths of ``m`` grow
    it to |K(M)| edges, so the cover K(M) is minimum; a smaller cover
    shows it is not.  Every path is judged by ``is_augmenting_path``.  A
    witness of the wrong shape (a cover that is not a frozenset of vertex
    ids, paths that are not a tuple of tuples) is answered False, not
    raised on.
    """
    g = m.graph
    k = _konig_mask(m)
    witness = verdict.witness
    if not verdict.is_minimum:
        if not isinstance(witness, frozenset):
            return False
        try:
            return (is_vertex_cover(g, witness)
                    and len(witness) < k.bit_count())
        except UnknownVertex:  # an element that is no vertex id, as 2.0
            return False
    if not isinstance(witness, tuple):
        return False
    used: set[int] = set()
    for p in witness:
        if not (isinstance(p, tuple) and is_augmenting_path(m, p)
                and used.isdisjoint(p)):
            return False
        used.update(p)
    return len(m) + len(witness) == k.bit_count() and _covers(g, k)
