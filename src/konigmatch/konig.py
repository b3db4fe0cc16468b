"""Kőnig's procedure: the alternating-reachability set Z, the derived
vertex set (U \\ Z) ∪ (V ∩ Z), and cover/minimal/minimum verdicts.

The procedure's U side is chosen per connected component (the smaller
side of each component, ties keeping the designated left side).  The
formula is evaluated for arbitrary matchings; its result always covers,
since N(Z ∩ U) ⊆ Z, and the cover verdict checks this, not assumes it.
Each function takes the matching alone and reads its graph from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import NotACover, UnknownVertex
from .graph import BipartiteGraph, procedure_sides
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
    reachability.

    From a U-vertex every non-matching edge is followed; from a V-vertex
    only the matching edge (if any).  A U-vertex in Z is unsaturated or
    was reached from its partner, so the walk follows all its edges.
    """
    g = m.graph
    u_side, _ = procedure_sides(g)
    partner = m._partner
    return frozenset(_alternating_closure(
        g._adjacency, partner, [u for u in u_side if u not in partner]))


def _alternating_closure(adjacency: dict[int, frozenset[int]],
                         partner: dict[int, int],
                         roots: list[int]) -> set[int]:
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


def _covers(g: BipartiteGraph, u_side: frozenset[int],
            s: frozenset[int]) -> bool:
    """True iff ``s`` covers every edge of ``g``; ``u_side`` holds one
    endpoint of each edge, so checking its vertices outside ``s`` is enough."""
    adjacency = g._adjacency
    return all(adjacency[x] <= s for x in u_side - s)


def is_vertex_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    sset = frozenset(s)
    if not sset <= g.vertices:
        raise UnknownVertex("cover candidate uses unknown vertices")
    return _covers(g, g.left, sset)


def is_minimal_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff ``s`` covers and no single vertex can be dropped.

    Equivalently: no vertex of ``s`` has its whole neighborhood inside
    ``s``.
    """
    sset = frozenset(s)
    if not is_vertex_cover(g, sset):
        raise NotACover("input is not a vertex cover")
    return not any(g.neighbors(r) <= sset for r in sset)


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
    """K(M) = (U \\ Z) ∪ (V ∩ Z) = U △ Z, without the verdicts."""
    return procedure_sides(m.graph)[0] ^ z_set(m)


def konig_cover(m: Matching) -> VertexCover:
    """Apply Kőnig's procedure to ``m`` and report what the result is.

    Returns (U \\ Z) ∪ (V ∩ Z) with the U side chosen per component.  For
    non-maximum matchings the result may fail to be minimum; the verdict
    fields record exactly what holds.
    """
    g = m.graph
    u_side, _ = procedure_sides(g)
    k = u_side ^ z_set(m)  # konig_vertices, keeping U for the check
    cover = _covers(g, u_side, k)
    minimal = cover and not any(g._adjacency[r] <= k for r in k)
    minimum = cover and len(k) == matching_number(g)
    return VertexCover(k, cover, minimal, minimum)
