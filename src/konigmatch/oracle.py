"""Exponential-time ground truth for small graphs.

Everything here enumerates exhaustively and independently of the
polynomial procedures, so the clever code paths can be checked against
it.  Enumeration aborts cleanly once a budget is exceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded
from .graph import BipartiteGraph
from .matching import Matching


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 16
    max_subsets: int = 2 ** 20


def _check_vertex_budget(g: BipartiteGraph, b: OracleBudget) -> None:
    if len(g.vertices) > b.max_vertices:
        raise BudgetExceeded(
            f"{len(g.vertices)} vertices exceeds budget {b.max_vertices}")


def all_minimum_covers(g: BipartiteGraph,
                       b: OracleBudget | None = None) -> set[frozenset[int]]:
    """Every vertex cover of minimum cardinality.

    Branches on an uncovered edge (take one endpoint or the other) with
    the target size increased until covers appear, so the search stays
    exponential only in the answer size.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    edges = sorted(g.edges)
    steps = 0

    def branch(chosen: set[int], k: int, out: set[frozenset[int]]) -> None:
        nonlocal steps
        steps += 1
        if steps > b.max_subsets:
            raise BudgetExceeded("cover enumeration exceeded subset budget")
        uncovered = next(((u, v) for u, v in edges
                          if u not in chosen and v not in chosen), None)
        if uncovered is None:
            out.add(frozenset(chosen))
            return
        if len(chosen) == k:
            return
        u, v = uncovered
        chosen.add(u)
        branch(chosen, k, out)
        chosen.remove(u)
        chosen.add(v)
        branch(chosen, k, out)
        chosen.remove(v)

    for k in range(len(g.vertices) + 1):
        out: set[frozenset[int]] = set()
        branch(set(), k, out)
        if out:
            return out
    return {frozenset()}


def minimum_covers_by_subset_scan(
    g: BipartiteGraph,
    b: OracleBudget | None = None,
) -> set[frozenset[int]]:
    """Dead-simple reference: scan all vertex subsets in increasing size.

    Kept as an independent cross-check for ``all_minimum_covers`` on tiny
    graphs.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    vertices = sorted(g.vertices)
    if 2 ** len(vertices) > b.max_subsets:
        raise BudgetExceeded("subset scan exceeds budget")
    edges = list(g.edges)
    for size in range(len(vertices) + 1):
        found = {
            frozenset(s)
            for s in combinations(vertices, size)
            if all(u in s or v in s for u, v in edges)
        }
        if found:
            return found
    return {frozenset()}


def all_matchings(g: BipartiteGraph,
                  b: OracleBudget | None = None) -> list[Matching]:
    """Every edge subset that is a matching, the empty one included."""
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    edges = sorted(g.edges)
    results: list[frozenset] = []

    def recurse(i: int, chosen: list, used: set[int]) -> None:
        if len(results) > b.max_subsets:
            raise BudgetExceeded("matching enumeration exceeded budget")
        if i == len(edges):
            results.append(frozenset(chosen))
            return
        u, v = edges[i]
        recurse(i + 1, chosen, used)
        if u not in used and v not in used:
            chosen.append((u, v))
            used.update((u, v))
            recurse(i + 1, chosen, used)
            chosen.pop()
            used.difference_update((u, v))

    recurse(0, [], set())
    return [Matching(g, es) for es in results]


def all_maximal_matchings(g: BipartiteGraph,
                          b: OracleBudget | None = None) -> list[Matching]:
    """Exactly the maximal matchings.

    Same subset recursion as ``all_matchings`` but a branch that leaves
    an edge addable forever is pruned early, which keeps star-studded
    graphs tractable; at each leaf a maximality check on the chosen
    endpoints filters the rest.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    edges = sorted(g.edges)
    last_edge_index: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        last_edge_index[u] = i
        last_edge_index[v] = i
    results: list[Matching] = []
    steps = 0

    def recurse(i: int, chosen: list, used: set[int]) -> None:
        nonlocal steps
        steps += 1
        if steps > 64 * b.max_subsets:
            raise BudgetExceeded("maximal-matching enumeration exceeded budget")
        if i == len(edges):
            if all(u in used or v in used for u, v in edges):
                results.append(Matching(g, chosen))
            return
        u, v = edges[i]
        free = u not in used and v not in used
        # skipping the last edge able to touch two free endpoints can
        # never lead to a maximal matching
        if not (free and last_edge_index[u] == i and last_edge_index[v] == i):
            recurse(i + 1, chosen, used)
        if free:
            chosen.append((u, v))
            used.update((u, v))
            recurse(i + 1, chosen, used)
            chosen.pop()
            used.difference_update((u, v))

    recurse(0, [], set())
    return results


def maximum_matching_size_brute_force(
    g: BipartiteGraph,
    b: OracleBudget | None = None,
) -> int:
    """Largest matching cardinality by full enumeration."""
    return max(len(m) for m in all_matchings(g, b))


def hall_condition(g: BipartiteGraph, side: str,
                   b: OracleBudget | None = None) -> bool:
    """Check |W| ≤ |N(W)| for every subset W of the chosen side.

    ``side`` is ``"left"`` or ``"right"``.
    """
    b = b or OracleBudget()
    vertices = sorted(g.left if side == "left" else g.right)
    if 2 ** len(vertices) > b.max_subsets:
        raise BudgetExceeded("Hall subset scan exceeds budget")
    for size in range(1, len(vertices) + 1):
        for w in combinations(vertices, size):
            neighborhood = set()
            for x in w:
                neighborhood |= g.neighbors(x)
            if len(w) > len(neighborhood):
                return False
    return True
