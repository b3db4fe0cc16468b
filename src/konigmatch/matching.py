"""Matchings, and growing a matching to maximum.

Everything here is a pure function over immutable values; a matching
never mutates after construction.  A matching records its graph, so
functions take the matching alone and read the graph from it.  The
constructor tests each edge on the graph's neighbour masks, orienting
it by the graph's side table, so an endpoint that is no vertex id
(negative, not an int) names no edge.  An
augmenting path is a plain tuple of vertex ids; ``maximize`` flips each
path it finds into a new ``Matching``, whose constructor checks the
result, and ``paths.is_augmenting_path`` judges a path given from
outside.  The search's BFS skips a neighbour only if it was reached
already, which is where a left vertex's matching edge leads.

Being immutable, a matching keeps what is derived from it: its Kőnig set
K(M) is computed once, by ``konig._konig_mask`` on first read, and
held, as a vertex mask, in the ``_konig`` slot, which both constructors
set to None.  ``is_maximal`` asks whether the saturated vertices cover
every edge (``graph._covers``), and ``maximize`` walks the graph's
neighbour masks.  A graph keeps its maximum matching's edges likewise, so
``maximum_matching`` searches once per graph, from the empty matching,
and the matching it returns depends on the graph alone; ``maximize``
grows any given matching and writes nothing into the graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from .errors import InvalidMatching
from .graph import BipartiteGraph, Edge, _bits, _covers, _mask, _sides


class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    __slots__ = ("graph", "edges", "_partner", "_konig")

    def __init__(self, graph: BipartiteGraph, edges: Iterable[Edge]):
        # graph._edge's test, inlined: this loop is the hot path of
        # maximize, which checks every M △ P it builds
        side = _sides(graph)
        adjacency = graph._adjacency
        normalized = []
        partner: dict[int, int] = {}
        for a, b in edges:
            try:
                if side[a]:
                    edge = adjacency[a] >> b & 1
                else:
                    a, b = b, a
                    edge = side[a] and adjacency[a] >> b & 1
            except (IndexError, KeyError, TypeError, ValueError):
                # an id that is no vertex (not an int, negative, absent)
                edge = 0
            if not edge:
                raise InvalidMatching(f"edge {(a, b)!r} not in host graph")
            if a in partner or b in partner:
                if partner.get(a) == b:  # the same edge again
                    continue
                raise InvalidMatching(f"edge ({a}, {b}) shares an endpoint")
            partner[a] = b
            partner[b] = a
            normalized.append((a, b))
        self.graph = graph
        self.edges = frozenset(normalized)
        self._partner = partner
        self._konig = None

    @classmethod
    def _unchecked(cls, graph: BipartiteGraph,
                   edges: Sequence[Edge]) -> Matching:
        """A matching built without validation.

        Precondition: ``edges`` are edges of ``graph`` as ``(left,
        right)`` tuples and no two of them share an endpoint.  Only for
        callers that guarantee this by construction, such as enumerators
        and the edges of a checked matching; everything else goes
        through ``Matching(...)``.
        """
        partner: dict[int, int] = {}
        for u, v in edges:
            partner[u] = v
            partner[v] = u
        m = cls.__new__(cls)
        m.graph = graph
        m.edges = frozenset(edges)
        m._partner = partner
        m._konig = None
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


def is_maximal(m: Matching) -> bool:
    """True iff no edge of ``m``'s graph has both endpoints unsaturated:
    the saturated vertices cover every edge."""
    return _covers(m.graph, _mask(m._partner))


def maximize(m: Matching) -> Matching:
    """Grow ``m`` to a maximum-cardinality matching (Kuhn).

    From each left vertex ``m`` leaves free, in ascending id order, a BFS
    follows non-matching edges to neighbours in ascending order and
    matching edges back; the first free vertex it reaches ends an
    augmenting path P, and M becomes the matching M △ P.  A vertex with
    no augmenting path gains none later, so none remains (Berge's
    condition).
    """
    g = m.graph
    adjacency = g._adjacency
    for start in m.unsaturated(_bits(g.left_mask)):
        parent: dict[int, int] = {start: -1}
        queue = deque([start])
        end = None
        while queue and end is None:
            x = queue.popleft()
            near = adjacency[x]
            while near:
                low = near & -near
                near ^= low
                y = low.bit_length() - 1
                # x is the free start or the partner of a y already in
                # parent, so its matching edge never leads anywhere new
                if y in parent:
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
            # the path runs from a right end to the left start, so its
            # odd places are its left vertices
            lefts, rights = path[1::2], path[0::2]
            # the constructor re-checks M △ P, so a faulty search raises
            m = Matching(g, m.edges.symmetric_difference(
                [*zip(lefts, rights), *zip(lefts, rights[1:])]))
    return m


def maximum_matching(g: BipartiteGraph) -> Matching:
    """A maximum-cardinality matching, searched once per graph:
    ``maximize`` grows the empty matching, and the graph keeps the
    result's edges, from which later calls rebuild it."""
    try:
        edges = g._maximum
    except AttributeError:
        m = maximize(Matching(g, ()))
        g._maximum = tuple(m.edges)
        return m
    return Matching._unchecked(g, edges)


def matching_number(g: BipartiteGraph) -> int:
    """ν(G), the size of the graph's one maximum matching."""
    try:
        return len(g._maximum)
    except AttributeError:
        return len(maximum_matching(g))
