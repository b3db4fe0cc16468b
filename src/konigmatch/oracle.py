"""Exponential-time ground truth for small graphs.

Everything here enumerates exhaustively and independently of the
polynomial procedures, so the clever code paths can be checked against
it.  Enumeration aborts cleanly once a budget is exceeded.  The searches
keep their state on explicit stacks, not in self-referencing closures, so
their results are freed by reference counting once the caller drops them.
"""

from __future__ import annotations

import math
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
    for k in range(len(g.vertices) + 1):
        out: set[frozenset[int]] = set()
        stack = [frozenset()]
        while stack:
            chosen = stack.pop()
            steps += 1
            if steps > b.max_subsets:
                raise BudgetExceeded(
                    "cover enumeration exceeded subset budget")
            uncovered = next(((u, v) for u, v in edges
                              if u not in chosen and v not in chosen), None)
            if uncovered is None:
                out.add(chosen)
            elif len(chosen) < k:
                u, v = uncovered
                stack.append(chosen | {v})
                stack.append(chosen | {u})
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


def _matchings(g: BipartiteGraph, maximal: bool, max_results: float,
               max_steps: float, what: str) -> list[Matching]:
    """The matchings (or, if ``maximal``, the maximal matchings) of ``g``.

    Decides the sorted edges one by one, skip before take, with an
    explicit stack, so results come in the same order either way; the
    used endpoints are one bitmask.  For ``maximal``, a vertex still free
    when its last edge is skipped is *closed free*, and a branch is cut
    as soon as two adjacent vertices are closed free: their edge can
    never be added.  Every leaf reached is then maximal.  Raises
    ``BudgetExceeded`` once the results exceed ``max_results`` or the
    visited nodes exceed ``max_steps``.
    """
    edges = sorted(g.edges)
    last: dict[int, int] = {}  # vertex -> index of its last edge
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    # vertex bit -> bitmask of its neighbours
    near = {1 << x: sum(1 << y for y in g.neighbors(x))
            for x in last} if maximal else {}
    # per edge: its endpoints' bitmask, the edge, and (if maximal) the
    # bitmask of the endpoints whose last edge it is
    plan = [((1 << u) | (1 << v), (u, v),
             sum(1 << x for x in (u, v) if maximal and last[x] == i))
            for i, (u, v) in enumerate(edges)]
    n = len(plan)
    results: list[Matching] = []
    steps = 0
    # (next edge, used bitmask, closed-free bitmask, chosen edges)
    stack: list[tuple] = [(0, 0, 0, ())]
    while stack:
        i, used, closed_free, chosen = stack.pop()
        start = i
        while i < n:
            mask, edge, closing = plan[i]
            i += 1
            if not used & mask:
                stack.append((i, used | mask, closed_free, chosen + (edge,)))
            # skip the edge: endpoints it was the last edge of close free
            newly = closing & ~used
            if newly:
                # both endpoints closing free leave this very edge addable
                if newly == mask or near[newly] & closed_free:
                    break
                closed_free |= newly
        else:
            results.append(Matching._unchecked(g, chosen))
            if len(results) > max_results:
                raise BudgetExceeded(f"{what} enumeration exceeded budget")
        steps += i - start + 1
        if steps > max_steps:
            raise BudgetExceeded(f"{what} enumeration exceeded budget")
    return results


def all_matchings(g: BipartiteGraph,
                  b: OracleBudget | None = None) -> list[Matching]:
    """Every edge subset that is a matching, the empty one included.

    Raises ``BudgetExceeded`` beyond ``b.max_subsets`` matchings.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    return _matchings(g, False, b.max_subsets, math.inf, "matching")


def all_maximal_matchings(g: BipartiteGraph,
                          b: OracleBudget | None = None) -> list[Matching]:
    """Exactly the maximal matchings, in the order ``all_matchings``
    lists them.

    The walk cuts a branch as soon as it leaves an edge with both
    endpoints free for good, so no non-maximal leaf is ever built, which
    keeps star-studded graphs tractable.  Raises ``BudgetExceeded``
    beyond ``64 * b.max_subsets`` visited nodes.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    return _matchings(g, True, math.inf, 64 * b.max_subsets,
                      "maximal-matching")


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
