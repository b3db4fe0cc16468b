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

The rules are defined once, over vertex masks (ints with bit v for
vertex v): ``_PathMasks`` enumerates a matching's paths and yields each
structure's family, vertex mask and Z(M △ P); ``_stranded``,
``_hat_cut`` and ``_hat`` derive the stranded set and the hat.
``path_structures``, ``PathStructure.stranded`` and ``hat_vertices``
read them and return vertex sets; the structure check in ``verify``
reads the masks directly and counts its cases by popcount.

``classify_matching`` enumerates no paths: it grows M to a maximum
matching, and ``verify_classification_witness`` checks its witness,
every path included.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
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
    read, by the mask rules the structure check applies.
    """

    matching: Matching
    base_path: tuple[int, ...]
    family: tuple[tuple[int, ...], ...]
    vertices: frozenset[int]
    z_after: frozenset[int]

    @property
    def stranded(self) -> frozenset[int]:
        """The unsaturated V-vertices outside the check part, which
        augmenting the base path strands."""
        m = self.matching
        # the partner map's keys are the saturated vertices
        free_v = _mask(procedure_sides(m.graph)[1]) & ~_mask(m._partner)
        return frozenset(_bits(_stranded(
            _mask(self.vertices), _mask(self.z_after), free_v)))

    @property
    def hat_cut_vertex(self) -> int | None:
        """v̂: the highest first-intersection with the base path over the
        family paths that run from a different unsaturated root to its
        endpoint; None when every such path starts at its own root."""
        return _hat_cut(self.base_path, _into_endpoint(self))


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
    adjacency = m.graph._adjacency
    partner = m._partner
    u_side, _ = procedure_sides(m.graph)
    found: list[tuple[int, ...]] = []
    # each U-vertex's neighbours, sorted once per call
    ordered: dict[int, list[int]] = {}
    for u in m.unsaturated(u_side):
        path = [u]
        on_path = {u}
        # one iterator over the sorted neighbours of each U-vertex on path
        stack = [iter(sorted(adjacency[u]))]
        while stack:
            for y in stack[-1]:
                # the matched edge at path[-1] leads back to path[-2]
                if y in on_path:
                    continue
                z = partner.get(y)
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
                if z not in ordered:
                    ordered[z] = sorted(adjacency[z])
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


def _mask(vertices: Iterable[int]) -> int:
    """A vertex set as an int: bit v stands for vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _PathMasks:
    """The augmenting paths of a matching, enumerated once, with the
    vertex mask of each: ``masks[i]`` is that of ``paths[i]``."""

    __slots__ = ("matching", "paths", "masks")

    def __init__(self, m: Matching):
        self.matching = m
        self.paths = enumerate_augmenting_paths(m)
        self.masks = [_mask(p) for p in self.paths]

    def structures(self) -> Iterator[tuple[int, list[int], int,
                                          frozenset[int]]]:
        """Per path P, in enumeration order: its index; its family, the
        ascending indices of the paths sharing a vertex with P, P's
        own included; the family's vertex union as a vertex mask; and
        Z(M △ P)."""
        m = self.matching
        masks = self.masks
        roots = m.unsaturated(procedure_sides(m.graph)[0])
        for i, (p, p_mask) in enumerate(zip(self.paths, masks)):
            family = [j for j, q_mask in enumerate(masks) if p_mask & q_mask]
            vertices = 0
            for j in family:
                vertices |= masks[j]
            yield i, family, vertices, _z_after(m, p, roots)


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
    for i, family, vertices, z_after in table.structures():
        yield PathStructure(m, paths[i], tuple(paths[j] for j in family),
                            frozenset(_bits(vertices)), z_after)


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


def _stranded(vertices: int, z_after: int, free_v: int) -> int:
    """The stranded vertex mask: the unsaturated V-vertices (``free_v``)
    of the structure's ``vertices`` outside Z(M △ P)."""
    return vertices & free_v & ~z_after


# paths with their vertex masks
_Masked = list[tuple[tuple[int, ...], int]]


def _into_endpoint(ps: PathStructure) -> _Masked:
    """The family paths sharing the base path's (unsaturated V)
    endpoint, with their vertex masks."""
    end = ps.base_path[-1]
    return [(q, _mask(q)) for q in ps.family if q[-1] == end]


def _hat_cut(p: tuple[int, ...], into_end: _Masked) -> int | None:
    """v̂ for the base path ``p``, from ``into_end``, the augmenting paths
    into p's endpoint with their vertex masks: over those from another
    root, the latest along p of their first vertices on p."""
    cut = -1
    for q, q_mask in into_end:
        if q[0] != p[0]:
            # q shares p's endpoint, so it meets p
            for i, v in enumerate(p):
                if q_mask >> v & 1:
                    break
            cut = max(cut, i)
    return p[cut] if cut >= 0 else None


def _hat(p: tuple[int, ...], into_end: _Masked, vertices: int) -> int:
    """The hat's vertex mask: ``vertices`` less the prefix, up to v̂, of
    each path into p's endpoint that passes through v̂.  With no path
    from a second root nothing is cut away."""
    cut = _hat_cut(p, into_end)
    if cut is None:
        return vertices
    for q, q_mask in into_end:
        if q_mask >> cut & 1:
            vertices &= ~_mask(q[:q.index(cut) + 1])
    return vertices


def hat_vertices(ps: PathStructure) -> frozenset[int]:
    """The vertices of Ĝ: the structure with everything up to v̂ removed.

    The prefixes cut away run along the paths into p's endpoint that pass
    through v̂.  With no path from a second root nothing is cut away.
    """
    return frozenset(_bits(_hat(ps.base_path, _into_endpoint(ps),
                                _mask(ps.vertices))))


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
