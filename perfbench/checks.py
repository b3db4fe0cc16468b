"""Independent output checks.

Nothing here calls konigmatch: graphs are plain label lists and
adjacency dicts, ν comes from networkx's Hopcroft–Karp, and Kőnig's
procedure is re-implemented from its definition.  Every check accepts any
correct answer, whichever maximum or maximal matching the program picked.
Each function returns an error message, or None when the output is right.
"""

from __future__ import annotations

import sys
from collections import deque


class Graph:
    """A bipartite graph given by its two label lists and its edges."""

    def __init__(self, left, right, edges):
        self.left = list(left)
        self.right = list(right)
        self.adj = {v: set() for v in self.left + self.right}
        for a, b in edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self._nu = None

    @property
    def nu(self) -> int:
        """Maximum matching size, from networkx's Hopcroft–Karp."""
        if self._nu is None:
            import networkx as nx
            from networkx.algorithms import bipartite

            g = nx.Graph()
            g.add_nodes_from(self.adj)
            g.add_edges_from((a, b) for a in self.left for b in self.adj[a])
            # networkx searches depth-first by recursion, as deep as the
            # longest alternating path
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(limit, 2 * len(self.adj) + 1000))
            try:
                mate = bipartite.hopcroft_karp_matching(g, top_nodes=self.left)
            finally:
                sys.setrecursionlimit(limit)
            self._nu = len(mate) // 2
        return self._nu

    def components(self):
        seen = set()
        for root in self.adj:
            if root in seen:
                continue
            seen.add(root)
            comp = [root]
            queue = deque([root])
            while queue:
                for y in self.adj[queue.popleft()]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        queue.append(y)
            yield comp


def matching_error(g: Graph, pairs) -> str | None:
    """None iff ``pairs`` is a set of vertex-disjoint edges of ``g``."""
    used = set()
    for a, b in pairs:
        if b not in g.adj.get(a, ()):
            return f"({a!r}, {b!r}) is not an edge"
        if a in used or b in used:
            return f"({a!r}, {b!r}) shares an endpoint"
        used.update((a, b))
    return None


def maximality_error(g: Graph, pairs) -> str | None:
    used = {v for pair in pairs for v in pair}
    for a in g.left:
        if a not in used and any(b not in used for b in g.adj[a]):
            return f"edge at {a!r} could still be added"
    return None


def cover_error(g: Graph, cover) -> str | None:
    for a in g.left:
        if a not in cover and not g.adj[a] <= cover:
            return f"edge at {a!r} is uncovered"
    return None


def is_minimal_cover(g: Graph, cover) -> bool:
    """A cover is minimal iff no vertex has its whole neighbourhood in it."""
    return not any(g.adj[v] <= cover for v in cover)


def konig_cover(g: Graph, pairs) -> set:
    """Kőnig's procedure applied to the matching ``pairs``.

    Per connected component the smaller side plays U (ties keep the
    designated left side, the smaller of the two lists, the first on a
    tie).  Z is everything reachable from unsaturated U-vertices by
    alternating paths; the result is (U \\ Z) ∪ (V ∩ Z).
    """
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    designated = set(g.left if len(g.left) <= len(g.right) else g.right)
    u_side = set()
    for comp in g.components():
        left_part = [v for v in comp if v in designated]
        if 2 * len(left_part) <= len(comp):
            u_side.update(left_part)
        else:
            u_side.update(v for v in comp if v not in designated)
    z = {u for u in u_side if u not in partner}
    stack = list(z)
    while stack:
        x = stack.pop()
        if x in u_side:
            nxt = [y for y in g.adj[x] if partner.get(x) != y]
        else:
            nxt = [partner[x]] if x in partner else []
        for y in nxt:
            if y not in z:
                z.add(y)
                stack.append(y)
    return {v for v in g.adj if (v in u_side) != (v in z)}
