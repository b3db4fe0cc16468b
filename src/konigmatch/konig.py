"""Kőnig's procedure: the alternating-reachability set Z, the derived
vertex set (U \\ Z) ∪ (V ∩ Z), and cover/minimal/minimum verdicts.

The procedure's U side is chosen per connected component (the smaller
side of each component, ties keeping the designated left side).  The
formula is evaluated for arbitrary matchings; its result always covers,
since N(Z ∩ U) ⊆ Z, and the cover verdict checks this, not assumes it.
Each function takes the matching alone and reads its graph from it.
A matching's Kőnig set is computed once: ``konig_vertices`` walks Z on
its first read and keeps K(M) in the matching's ``_konig`` slot, and
``z_set`` and ``konig_cover`` read it from there.
``_covers`` tests covering for ``konig_cover`` and ``is_vertex_cover``
alike, over the graph's left side, which holds an endpoint of every
edge; the U side decides only K(M).  Minimality is defined once, for
``konig_cover`` and ``is_minimal_cover`` alike: no vertex of the set
has its whole neighborhood inside it.  A set that does not cover is
neither minimal nor minimum.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import UnknownVertex
from .graph import BipartiteGraph
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
    return m.graph.u_side ^ konig_vertices(m)


def _alternating_closure(adjacency: dict[int, frozenset[int]],
                         partner: dict[int, int],
                         roots: Iterable[int]) -> set[int]:
    """The vertices reachable from the U-vertices ``roots`` by alternating
    paths, ``roots`` included: from a U-vertex every edge is followed,
    from a V-vertex only its matching edge (if any).  ``adjacency`` is
    read only at U-vertices, so it may be that of any subgraph holding
    their edges."""
    stack = list(roots)
    z = set(stack)
    while stack:
        for y in adjacency[stack.pop()]:
            if y not in z:
                z.add(y)
                x = partner.get(y)
                if x is not None:
                    z.add(x)
                    stack.append(x)
    return z


def _covers(g: BipartiteGraph, s: frozenset[int]) -> bool:
    """True iff ``s`` covers every edge of ``g``; the left side holds one
    endpoint of each edge, so checking its vertices outside ``s`` is enough."""
    adjacency = g._adjacency
    return all(adjacency[x] <= s for x in g.left - s)


def is_vertex_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    sset = frozenset(s)
    if not sset <= g.vertices:
        raise UnknownVertex("cover candidate uses unknown vertices")
    return _covers(g, sset)


def _irredundant(g: BipartiteGraph, s: frozenset[int]) -> bool:
    """True iff no vertex of ``s`` has its whole neighborhood inside
    ``s``: a cover with this property loses an edge when any single
    vertex is dropped, so it is minimal."""
    adjacency = g._adjacency
    return not any(adjacency[r] <= s for r in s)


def is_minimal_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff ``s`` covers and no single vertex can be dropped; a set
    that does not cover gives False."""
    sset = frozenset(s)
    return is_vertex_cover(g, sset) and _irredundant(g, sset)


def is_minimum_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """Cover of cardinality equal to the maximum matching size.

    The matching size is the polynomial certificate of minimality for
    bipartite graphs, so no enumeration is needed.
    """
    sset = frozenset(s)
    if not is_vertex_cover(g, sset):
        return False
    return len(sset) == matching_number(g)


def konig_vertices(m: Matching) -> frozenset[int]:
    """K(M) = (U \\ Z) ∪ (V ∩ Z) = U △ Z, without the verdicts; Z is
    walked on the first read and K(M) kept on ``m`` for every later one."""
    k = m._konig
    if k is None:
        g = m.graph
        u_side = g.u_side
        partner = m._partner
        # the roots are the U-vertices M leaves free: the partner map's
        # keys are the saturated vertices
        k = m._konig = u_side ^ _alternating_closure(
            g._adjacency, partner, u_side.difference(partner))
    return k


def konig_cover(m: Matching) -> VertexCover:
    """Apply Kőnig's procedure to ``m`` and report what the result is.

    Returns (U \\ Z) ∪ (V ∩ Z) with the U side chosen per component.  For
    non-maximum matchings the result may fail to be minimum; the verdict
    fields record exactly what holds.
    """
    g = m.graph
    k = konig_vertices(m)
    cover = _covers(g, k)
    minimal = cover and _irredundant(g, k)
    minimum = cover and len(k) == matching_number(g)
    return VertexCover(k, cover, minimal, minimum)
