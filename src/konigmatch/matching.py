"""Matchings, and growing a matching to maximum.

Everything here is a pure function over immutable values; a matching
never mutates after construction.  A matching records its graph, so
functions take the matching alone and read the graph from it.  An
augmenting path is a plain tuple of vertex ids; ``maximize`` flips each
path it finds into a new ``Matching``, whose constructor checks the
result, and ``paths.is_augmenting_path`` judges a path given from
outside.  The search's BFS skips a neighbour only if it was reached
already, which is where a left vertex's matching edge leads.

Being immutable, a matching keeps what is derived from it: its Kőnig set
K(M) is computed once, by ``konig.konig_vertices`` on first read, and
held in the ``_konig`` slot, which both constructors set to None.  A
graph keeps its maximum matching's edges likewise, so
``maximum_matching`` searches once per graph.  That search grows the
matching its caller already holds, when there is one (a trial's maximal
matching, a matching to classify), so it reaches ν with fewer
augmentations than from the empty matching; ``maximize`` itself writes
nothing into the graph.  Which maximum matching a fresh graph keeps
thus depends on its first caller (``corpus.cached_corpus`` searches its
graphs from the empty matching); ν, and every verdict, does not.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from .errors import InvalidMatching
from .graph import BipartiteGraph, Edge


class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph."""

    __slots__ = ("graph", "edges", "_partner", "_konig")

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
        self._konig = None

    @classmethod
    def _unchecked(cls, graph: BipartiteGraph,
                   edges: Sequence[Edge]) -> Matching:
        """A matching built without validation.

        Precondition: ``edges`` are stored edge keys of ``graph`` (the
        ``(left, right)`` tuples in ``graph.edges``) and no two of them
        share an endpoint.  Only for callers that guarantee this by
        construction, such as enumerators and the edges of a checked
        matching; everything else goes through ``Matching(...)``.
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
    """True iff no edge of ``m``'s graph has both endpoints unsaturated."""
    partner = m._partner
    return all(u in partner or v in partner for u, v in m.graph.edges)


def maximize(m: Matching) -> Matching:
    """Grow ``m`` to a maximum-cardinality matching (Kuhn).

    From each left vertex ``m`` leaves free, in ascending id order, a BFS
    follows non-matching edges to sorted neighbours and matching edges
    back; the first free vertex it reaches ends an augmenting path P, and
    M becomes the matching M △ P.  A vertex with no augmenting path gains
    none later, so none remains (Berge's condition).
    """
    g = m.graph
    for start in m.unsaturated(g.left):
        parent: dict[int, int] = {start: -1}
        queue = deque([start])
        end = None
        while queue and end is None:
            x = queue.popleft()
            for y in sorted(g.neighbors(x)):
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
            # the constructor re-checks M △ P, so a faulty search raises
            m = Matching(g, m.edges.symmetric_difference(
                map(g.edge_key, path, path[1:])))
    return m


def maximum_matching(g: BipartiteGraph,
                     start: Matching | None = None) -> Matching:
    """A maximum-cardinality matching, searched once per graph: ``maximize``
    grows ``start``, a matching of ``g`` the caller holds, or the empty
    matching, and the graph keeps the result's edges.  Once they are kept,
    ``start`` is ignored and the matching is rebuilt from them."""
    try:
        edges = g._maximum
    except AttributeError:
        if start is None:
            start = Matching(g, ())
        elif start.graph is not g:
            raise InvalidMatching("start is a matching of another graph")
        m = maximize(start)
        g._maximum = m.edges
        return m
    return Matching._unchecked(g, edges)


def matching_number(g: BipartiteGraph) -> int:
    """ν(G), the size of the graph's one maximum matching."""
    try:
        return len(g._maximum)
    except AttributeError:
        return len(maximum_matching(g))
