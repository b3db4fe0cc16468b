"""Kőnig's procedure: the alternating-reachability set Z, the derived
vertex set (U \\ Z) ∪ (V ∩ Z), and cover/minimal/minimum verdicts.

The procedure's U side is chosen per connected component (the smaller
side of each component, ties keeping the designated left side).  The
formula is evaluated for arbitrary matchings; its result always covers,
since N(Z ∩ U) ⊆ Z, and the cover verdict checks this, not assumes it.
Each function takes the matching alone and reads its graph from it.

Everything here runs on vertex masks (see ``graph``) and the graph's
neighbour masks.  ``_alternating_closure`` is the one closure: the
mask reachable from a root mask by alternating paths, which
``_z_after`` in ``paths`` and ``maximal_witness`` in ``stars`` walk
too.  A matching's Kőnig set is computed once: ``_konig_mask`` walks Z
on its first read and keeps K(M), as a mask, in the matching's
``_konig`` slot.  The package's checks read that mask;
``konig_vertices``, ``z_set`` and ``konig_cover`` turn it into a
frozenset for callers outside it.  ``konig_cover`` and the set verdicts
alike test covering with ``graph._covers`` and minimality with
``graph._irredundant``.  A set that does not cover is neither minimal
nor minimum.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .graph import (
    BipartiteGraph,
    _bits,
    _covers,
    _irredundant,
    _known_mask,
    _mask,
)
from .matching import Matching, matching_number


@dataclass(frozen=True)
class VertexCover:
    """A vertex set with its cover verdicts.

    ``is_minimum`` implies ``is_minimal`` implies ``is_cover``.
    """

    vertices: frozenset[int]
    is_cover: bool
    is_minimal: bool
    is_minimum: bool

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def z_set(m: Matching) -> frozenset[int]:
    """Z: the closure of the unsaturated U-vertices under alternating
    reachability, read as U △ K(M) from the matching's kept K(M).

    From a U-vertex every non-matching edge is followed; from a V-vertex
    only the matching edge (if any).  A U-vertex in Z is unsaturated or
    was reached from its partner, so the walk follows all its edges.
    """
    return frozenset(_bits(m.graph.u_mask ^ _konig_mask(m)))


def _alternating_closure(adjacency: dict[int, int], partner: dict[int, int],
                         roots: int) -> int:
    """The vertex mask reachable from the U-vertex mask ``roots`` by
    alternating paths, ``roots`` included: from a U-vertex every edge is
    followed, from a V-vertex only its matching edge (if any).  A V-vertex
    is reached once, and its partner only through it, so each U-vertex
    joins the frontier once.  ``adjacency`` holds neighbour masks and is
    read only at U-vertices, so it may be that of any graph holding their
    edges."""
    z = frontier = roots
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adjacency[low.bit_length() - 1] & ~z
        z |= new
        while new:
            low = new & -new
            new ^= low
            x = partner.get(low.bit_length() - 1)
            if x is not None:
                x = 1 << x
                z |= x
                frontier |= x
    return z


def is_vertex_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    return _covers(g, _known_mask(g, s))


def is_minimal_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff ``s`` covers and no single vertex can be dropped; a set
    that does not cover gives False."""
    mask = _known_mask(g, s)
    return _covers(g, mask) and _irredundant(g, mask)


def is_minimum_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """Cover of cardinality equal to the maximum matching size.

    The matching size is the polynomial certificate of minimality for
    bipartite graphs, so no enumeration is needed.
    """
    mask = _known_mask(g, s)
    return _covers(g, mask) and mask.bit_count() == matching_number(g)


def _konig_mask(m: Matching) -> int:
    """K(M) = U △ Z as a vertex mask; Z is walked on the first read and
    K(M) kept on ``m`` for every later one."""
    k = m._konig
    if k is None:
        g = m.graph
        u_mask = g.u_mask
        partner = m._partner
        # the roots are the U-vertices M leaves free: the partner map's
        # keys are the saturated vertices
        k = m._konig = u_mask ^ _alternating_closure(
            g._adjacency, partner, u_mask & ~_mask(partner))
    return k


def konig_vertices(m: Matching) -> frozenset[int]:
    """K(M) = (U \\ Z) ∪ (V ∩ Z) = U △ Z, without the verdicts, as a
    vertex set built from the mask the matching keeps."""
    return frozenset(_bits(_konig_mask(m)))


def konig_cover(m: Matching) -> VertexCover:
    """Apply Kőnig's procedure to ``m`` and report what the result is.

    Returns (U \\ Z) ∪ (V ∩ Z) with the U side chosen per component.  For
    non-maximum matchings the result may fail to be minimum; the verdict
    fields record exactly what holds.
    """
    g = m.graph
    k = _konig_mask(m)
    cover = _covers(g, k)
    minimal = cover and _irredundant(g, k)
    minimum = cover and k.bit_count() == matching_number(g)
    return VertexCover(frozenset(_bits(k)), cover, minimal, minimum)
