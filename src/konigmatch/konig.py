"""Kőnig's procedure: the alternating-reachability set Z, the derived
vertex set (U \\ Z) ∪ (V ∩ Z), and cover/minimal/minimum verdicts.

The procedure's U side is chosen per connected component (the smaller
side of each component, ties keeping the designated left side).  The
formula is evaluated for arbitrary matchings; whether the result is a
cover at all is reported honestly rather than assumed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotACover, UnknownVertex
from .graph import BipartiteGraph, procedure_sides
from .matching import Matching, _require_same_graph, matching_number


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

    def __len__(self) -> int:
        return len(self.vertices)


def _cover_vertices(c: VertexCover | Iterable[int]) -> frozenset[int]:
    """The vertex set of a ``VertexCover`` or of any iterable of ids."""
    if isinstance(c, VertexCover):
        return c.vertices
    return frozenset(c)


def z_set(g: BipartiteGraph, m: Matching) -> frozenset[int]:
    """Z: the closure of the unsaturated U-vertices under alternating
    reachability.

    From a U-vertex every non-matching edge is followed; from a V-vertex
    only the matching edge (if any).  The result is the fixed point of
    these rules.
    """
    _require_same_graph(g, m)
    u_side, _ = procedure_sides(g)
    z: set[int] = {u for u in u_side if not m.saturates(u)}
    stack = list(z)
    while stack:
        x = stack.pop()
        if x in u_side:
            for y in g.neighbors(x):
                if (x, y) not in m and y not in z:
                    z.add(y)
                    stack.append(y)
        else:
            p = m.partner(x)
            if p is not None and p not in z:
                z.add(p)
                stack.append(p)
    return frozenset(z)


def is_vertex_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``s``."""
    sset = set(s)
    if not sset <= g.vertices:
        raise UnknownVertex("cover candidate uses unknown vertices")
    return all(u in sset or v in sset for u, v in g.edges)


def is_minimal_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """True iff ``s`` covers and no single vertex can be dropped.

    Equivalently: no vertex of ``s`` has its whole neighborhood inside
    ``s``.
    """
    sset = set(s)
    if not is_vertex_cover(g, sset):
        raise NotACover("input is not a vertex cover")
    return not any(g.neighbors(r) <= sset for r in sset)


def is_minimum_cover(g: BipartiteGraph, s: Iterable[int]) -> bool:
    """Cover of cardinality equal to the maximum matching size.

    The matching size is the polynomial certificate of minimality for
    bipartite graphs, so no enumeration is needed.
    """
    sset = set(s)
    if not is_vertex_cover(g, sset):
        return False
    return len(sset) == matching_number(g)


def konig_cover(g: BipartiteGraph, m: Matching) -> VertexCover:
    """Apply Kőnig's procedure to ``m`` and report what the result is.

    Returns (U \\ Z) ∪ (V ∩ Z) with the U side chosen per component.  For
    non-maximum matchings the result may fail to be minimum; the verdict
    fields record exactly what holds.
    """
    _require_same_graph(g, m)
    u_side, v_side = procedure_sides(g)
    z = z_set(g, m)
    k = frozenset((u_side - z) | (v_side & z))
    cover = is_vertex_cover(g, k)
    minimal = cover and is_minimal_cover(g, k)
    minimum = cover and len(k) == matching_number(g)
    return VertexCover(k, cover, minimal, minimum)
