"""Matchings and augmenting paths, and growing a matching to maximum.

Everything here is a pure function over immutable values; a matching
never mutates after construction.  A matching records its graph and a
path records its matching, so functions take the matching (or path)
alone and read the rest from it.  Only augmenting paths are modelled:
a path that is not one cannot be constructed, so ``augment`` needs no
check.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from .errors import InvalidMatching
from .graph import BipartiteGraph, Edge


class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    __slots__ = ("graph", "edges", "_partner")

    def __init__(self, graph: BipartiteGraph, edges: Iterable[Edge]):
        normalized = set()
        for a, b in edges:
            e = graph.edge_key(a, b)
            # an unknown vertex makes a key that is not a stored edge
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


class AugmentingPath:
    """A simple path between two unsaturated vertices whose edges
    alternate out of and into a matching, so M △ P is a larger matching.

    Any other vertex sequence raises ``InvalidMatching``.  ``edges``
    holds the path's edges in the stored ``(left, right)`` order.
    """

    __slots__ = ("vertices", "matching", "edges")

    def __init__(self, vertices: Sequence[int], matching: Matching):
        g = matching.graph
        verts = tuple(vertices)
        if len(verts) < 2:
            raise InvalidMatching("a path needs at least two vertices")
        if len(set(verts)) != len(verts):
            raise InvalidMatching("path vertices must be distinct")
        if matching.saturates(verts[0]) or matching.saturates(verts[-1]):
            raise InvalidMatching("path endpoints must be unsaturated")
        keys = []
        for a, b in zip(verts, verts[1:]):
            e = g.edge_key(a, b)
            if e not in g.edges:
                raise InvalidMatching(f"({a}, {b}) is not an edge")
            keys.append(e)
        # unsaturated endpoints put the first and last edges outside M, so
        # alternation also gives an odd edge count
        in_matching = [e in matching.edges for e in keys]
        for prev, cur in zip(in_matching, in_matching[1:]):
            if prev == cur:
                raise InvalidMatching("path does not alternate")
        self.vertices = verts
        self.matching = matching
        self.edges = frozenset(keys)

    @classmethod
    def _unchecked(cls, vertices: tuple[int, ...],
                   matching: Matching) -> AugmentingPath:
        """An augmenting path built without validation.

        Precondition: ``vertices`` are distinct vertices of
        ``matching.graph``, consecutive ones are adjacent, the first and
        last are unsaturated, and the edges alternate out of and into
        ``matching``.  Only for enumerators that guarantee this by
        construction; everything else goes through ``AugmentingPath(...)``.
        """
        key = matching.graph.edge_key
        p = cls.__new__(cls)
        p.vertices = vertices
        p.matching = matching
        p.edges = frozenset(key(a, b) for a, b in zip(vertices, vertices[1:]))
        return p

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugmentingPath):
            return NotImplemented
        return (self.vertices == other.vertices
                and self.matching == other.matching)

    def __hash__(self) -> int:
        return hash((self.vertices, self.matching))

    def __repr__(self) -> str:
        return f"AugmentingPath({list(self.vertices)})"


def is_maximal(m: Matching) -> bool:
    """True iff no edge of ``m``'s graph has both endpoints unsaturated."""
    partner = m._partner
    return all(u in partner or v in partner for u, v in m.graph.edges)


def augment(path: AugmentingPath) -> Matching:
    """The larger matching M △ P, for the augmenting path P of M."""
    m = path.matching
    return Matching(m.graph, m.edges ^ path.edges)


def maximize(m: Matching) -> Matching:
    """Grow ``m`` to a maximum-cardinality matching (Kuhn).

    From each left vertex ``m`` leaves free, in ascending id order, a BFS
    follows non-matching edges to sorted neighbours and matching edges
    back; the first free vertex it reaches ends an augmenting path, which
    ``augment`` flips.  A vertex with no augmenting path gains none later,
    so none remains (Berge's condition).  The size is kept as
    ``matching_number``.
    """
    g = m.graph
    for start in m.unsaturated(g.left):
        parent: dict[int, int] = {start: -1}
        queue = deque([start])
        end = None
        while queue and end is None:
            x = queue.popleft()
            for y in sorted(g.neighbors(x)):
                if y in parent or (x, y) in m:
                    continue
                parent[y] = x
                if not m.saturates(y):
                    end = y
                    break
                # y's partner is reached through y alone, so it is new
                z = m.partner(y)
                parent[z] = y
                queue.append(z)
        if end is not None:
            path = [end]
            while path[-1] != start:
                path.append(parent[path[-1]])
            m = augment(AugmentingPath(path[::-1], m))
    g._nu = len(m)
    return m


def maximum_matching(g: BipartiteGraph) -> Matching:
    """A maximum-cardinality matching: ``maximize`` from the empty one."""
    return maximize(Matching(g, ()))


def matching_number(g: BipartiteGraph) -> int:
    """ν(G), the size of a maximum matching, computed once per graph."""
    try:
        return g._nu
    except AttributeError:
        return len(maximum_matching(g))
