"""Matchings and alternating paths: greedy maximal construction,
augmenting-path search, and maximum matching.

Everything here is a pure function over immutable values; a matching
never mutates after construction.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from .errors import (
    ForeignMatching,
    InvalidMatching,
    NotAugmenting,
    SaturatedStart,
    UnknownVertex,
)
from .graph import BipartiteGraph, Edge


class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    __slots__ = ("graph", "edges", "_partner")

    def __init__(self, graph: BipartiteGraph, edges: Iterable[Edge]):
        normalized = set()
        for a, b in edges:
            try:
                e = graph.edge_key(a, b)
            except UnknownVertex:
                raise InvalidMatching(f"edge ({a}, {b}) not in host graph")
            if e not in graph.edges:
                raise InvalidMatching(f"edge {e} not in host graph")
            normalized.add(e)
        partner: dict[int, int] = {}
        for u, v in normalized:
            if u in partner or v in partner:
                raise InvalidMatching(f"edge ({u}, {v}) shares an endpoint")
            partner[u] = v
            partner[v] = u
        self.graph = graph
        self.edges = frozenset(normalized)
        self._partner = partner

    @classmethod
    def _unchecked(cls, graph: BipartiteGraph,
                   edges: Sequence[Edge]) -> Matching:
        """A matching built without validation.

        Precondition: ``edges`` are stored edge keys of ``graph`` (the
        ``(left, right)`` tuples in ``graph.edges``) and no two of them
        share an endpoint.  Only for enumerators that guarantee this by
        construction; everything else goes through ``Matching(...)``.
        """
        partner: dict[int, int] = {}
        for u, v in edges:
            partner[u] = v
            partner[v] = u
        m = cls.__new__(cls)
        m.graph = graph
        m.edges = frozenset(edges)
        m._partner = partner
        return m

    def saturates(self, v: int) -> bool:
        return v in self._partner

    def partner(self, v: int) -> int | None:
        return self._partner.get(v)

    def unsaturated(self, vertices: Iterable[int]) -> list[int]:
        return sorted(v for v in vertices if v not in self._partner)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return self.graph.edge_key(*edge) in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.graph == other.graph and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.graph, self.edges))

    def __repr__(self) -> str:
        return f"Matching({sorted(self.edges)})"


class AlternatingPath:
    """A simple path whose edges strictly alternate in/out of a matching.

    ``augmenting`` is true exactly when the path has an even number of
    vertices and both endpoints are unsaturated.  ``edges`` holds the
    path's edges in the stored ``(left, right)`` order.
    """

    __slots__ = ("vertices", "matching", "augmenting", "edges")

    def __init__(self, vertices: Sequence[int], matching: Matching):
        g = matching.graph
        verts = tuple(vertices)
        if len(verts) < 2:
            raise InvalidMatching("a path needs at least two vertices")
        if len(set(verts)) != len(verts):
            raise InvalidMatching("path vertices must be distinct")
        keys = []
        for a, b in zip(verts, verts[1:]):
            e = g.edge_key(a, b)
            if e not in g.edges:
                raise InvalidMatching(f"({a}, {b}) is not an edge")
            keys.append(e)
        in_matching = [e in matching.edges for e in keys]
        for prev, cur in zip(in_matching, in_matching[1:]):
            if prev == cur:
                raise InvalidMatching("path does not alternate")
        self.vertices = verts
        self.matching = matching
        self.augmenting = (
            len(verts) % 2 == 0
            and not matching.saturates(verts[0])
            and not matching.saturates(verts[-1])
        )
        self.edges = frozenset(keys)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlternatingPath):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.matching == other.matching)

    def __hash__(self) -> int:
        return hash((self.vertices, self.matching))

    def __repr__(self) -> str:
        return f"AlternatingPath({list(self.vertices)})"


def _require_same_graph(g: BipartiteGraph, m: Matching) -> None:
    if m.graph is not g and m.graph != g:
        raise ForeignMatching("matching belongs to a different graph")


def greedy_maximal_matching(g: BipartiteGraph,
                            edge_order: Sequence[Edge]) -> Matching:
    """Scan ``edge_order`` once, adding each edge whose endpoints are free.

    ``edge_order`` must be a permutation of the graph's edges so callers
    control (and can seed) the selection order.
    """
    ordered = [g.edge_key(a, b) for a, b in edge_order]
    if len(ordered) != len(g.edges) or set(ordered) != set(g.edges):
        raise InvalidMatching("edge_order is not a permutation of the edges")
    used: set[int] = set()
    chosen = []
    for u, v in ordered:
        if u not in used and v not in used:
            chosen.append((u, v))
            used.add(u)
            used.add(v)
    return Matching(g, chosen)


def is_maximal(g: BipartiteGraph, m: Matching) -> bool:
    """True iff no edge of ``g`` has both endpoints unsaturated by ``m``."""
    _require_same_graph(g, m)
    return all(m.saturates(u) or m.saturates(v) for u, v in g.edges)


def find_augmenting_path(g: BipartiteGraph, m: Matching,
                         start: int) -> AlternatingPath | None:
    """BFS for an augmenting path from the unsaturated vertex ``start``.

    Follows non-matching edges away from ``start``'s side and matching
    edges back; the first unsaturated vertex reached on the opposite side
    ends the search.
    """
    _require_same_graph(g, m)
    if start not in g:
        raise UnknownVertex(f"vertex {start} not in graph")
    if m.saturates(start):
        raise SaturatedStart(f"vertex {start} is saturated")
    parent: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in sorted(g.neighbors(x)):
            if y in parent or (x, y) in m:
                continue
            parent[y] = x
            if not m.saturates(y):
                path = [y]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return AlternatingPath(path, m)
            z = m.partner(y)
            if z not in parent:
                parent[z] = y
                queue.append(z)
    return None


def augment(m: Matching, path: AlternatingPath) -> Matching:
    """Replace ``m`` with the larger matching ``m △ path``; ``path`` must
    alternate against ``m`` (or an equal matching)."""
    if path.matching is not m and path.matching != m:
        raise NotAugmenting("path alternates against another matching")
    if not path.augmenting:
        raise InvalidMatching("path is not augmenting")
    return Matching(m.graph, m.edges ^ path.edges)


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Grow the empty matching to a maximum-cardinality matching.

    Augments from each left vertex once, in ascending id order: a vertex
    with no augmenting path gains none later (Kuhn), so none remains
    (Berge's condition).  The size is kept as ``matching_number``.
    """
    m = Matching(g, ())
    for u in sorted(g.left):
        path = find_augmenting_path(g, m, u)
        if path is not None:
            m = augment(m, path)
    g._nu = len(m)
    return m


def matching_number(g: BipartiteGraph) -> int:
    """ν(G), the size of a maximum matching, computed once per graph."""
    try:
        return g._nu
    except AttributeError:
        return len(maximum_matching(g))


def symmetric_difference(m1: Matching, m2: Matching) -> frozenset[Edge]:
    if m1.graph != m2.graph:
        raise ForeignMatching("matchings live on different graphs")
    return m1.edges ^ m2.edges


def is_disjoint_cycle_union(g: BipartiteGraph,
                            edges: Iterable[Edge]) -> bool:
    """True iff every vertex touched by ``edges`` has degree exactly 2."""
    eset = {g.edge_key(a, b) for a, b in edges}
    if not eset <= g.edges:
        raise UnknownVertex("edge set is not a subset of the graph's edges")
    degree: dict[int, int] = {}
    for u, v in eset:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return all(d == 2 for d in degree.values())
