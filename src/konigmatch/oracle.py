"""Exponential-time ground truth for small graphs.

Everything here enumerates exhaustively and independently of the
polynomial procedures, so the clever code paths can be checked against
it.  Enumeration aborts cleanly once a budget is exceeded.  The searches
keep their state on explicit stacks, not in self-referencing closures, so
their results are freed by reference counting once the caller drops them.

Matchings are enumerated lazily: ``iter_maximal_matchings`` yields each
maximal matching as the walk reaches it, so an existence check (such as
``stars.maximal_witness`` on one component) can stop the walk once it
has its answer, and nothing it did not draw is ever built.
``all_matchings`` and ``all_maximal_matchings`` collect the same walk
into a list.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

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

    Branches on the first uncovered edge (take one endpoint or the
    other) with the target size increased until covers appear, so the
    search stays exponential only in the answer size.  Each branch
    resumes the edge scan after the edge it branched on: every edge
    before it stays covered as the chosen set grows.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    edges = sorted(g.edges)
    n = len(edges)
    steps = 0
    for k in range(len(g.vertices) + 1):
        out: set[frozenset[int]] = set()
        stack = [(frozenset(), 0)]
        while stack:
            chosen, i = stack.pop()
            steps += 1
            if steps > b.max_subsets:
                raise BudgetExceeded(
                    "cover enumeration exceeded subset budget")
            while i < n and (edges[i][0] in chosen or edges[i][1] in chosen):
                i += 1
            if i == n:
                out.add(chosen)
            elif len(chosen) < k:
                u, v = edges[i]
                stack.append((chosen | {v}, i + 1))
                stack.append((chosen | {u}, i + 1))
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
               max_steps: float, what: str) -> Iterator[Matching]:
    """Yield the matchings (or, if ``maximal``, the maximal matchings) of
    ``g``.

    Decides the sorted edges one by one, skip before take, with an
    explicit stack, so results come in the same order either way; the
    used endpoints are one bitmask.  For ``maximal``, a vertex still free
    when its last edge is skipped is *closed free*, and a branch is cut
    as soon as two adjacent vertices are closed free: their edge can
    never be added.  Every leaf reached is then maximal.  Raises
    ``BudgetExceeded`` before yielding result ``max_results + 1``, or once
    the visited nodes exceed ``max_steps``; the walk advances only as far
    as the caller draws.
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
    found = 0
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
            found += 1
            if found > max_results:
                raise BudgetExceeded(f"{what} enumeration exceeded budget")
            yield Matching._unchecked(g, chosen)
        steps += i - start + 1
        if steps > max_steps:
            raise BudgetExceeded(f"{what} enumeration exceeded budget")


def _iter_matchings(g: BipartiteGraph,
                    b: OracleBudget | None) -> Iterator[Matching]:
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    return _matchings(g, False, b.max_subsets, math.inf, "matching")


def all_matchings(g: BipartiteGraph,
                  b: OracleBudget | None = None) -> list[Matching]:
    """Every edge subset that is a matching, the empty one included.

    Raises ``BudgetExceeded`` beyond ``b.max_subsets`` matchings.
    """
    return list(_iter_matchings(g, b))


def iter_maximal_matchings(g: BipartiteGraph,
                           b: OracleBudget | None = None
                           ) -> Iterator[Matching]:
    """Yield exactly the maximal matchings, in the order ``all_matchings``
    lists them, one at a time as the walk reaches them.

    The walk cuts a branch as soon as it leaves an edge with both
    endpoints free for good, so no non-maximal leaf is ever built, which
    keeps star-studded graphs tractable.  The vertex budget is checked at
    the call; ``BudgetExceeded`` is raised from the iteration once the
    walk visits more than ``64 * b.max_subsets`` nodes, so a caller that
    stops drawing early never pays for the rest of the walk.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    return _matchings(g, True, math.inf, 64 * b.max_subsets,
                      "maximal-matching")


def all_maximal_matchings(g: BipartiteGraph,
                          b: OracleBudget | None = None) -> list[Matching]:
    """Exactly the maximal matchings, in the order ``all_matchings``
    lists them: ``iter_maximal_matchings`` collected into a list."""
    return list(iter_maximal_matchings(g, b))


def maximum_matching_size_brute_force(
    g: BipartiteGraph,
    b: OracleBudget | None = None,
) -> int:
    """Largest matching cardinality by full enumeration, holding one
    matching at a time."""
    return max(len(m) for m in _iter_matchings(g, b))


def hall_condition(g: BipartiteGraph,
                   b: OracleBudget | None = None) -> tuple[bool, bool]:
    """Whether |W| ≤ |N(W)| for every subset W of the left side, and of
    the right side, in that order; each side's budget is checked before
    it is scanned."""
    b = b or OracleBudget()
    verdicts = []
    for side in (g.left, g.right):
        vertices = sorted(side)
        if 2 ** len(vertices) > b.max_subsets:
            raise BudgetExceeded("Hall subset scan exceeds budget")
        for w in chain.from_iterable(combinations(vertices, size)
                                     for size in range(1, len(vertices) + 1)):
            neighborhood = set()
            for x in w:
                neighborhood |= g.neighbors(x)
            if len(w) > len(neighborhood):
                verdicts.append(False)
                break
        else:
            verdicts.append(True)
    left_ok, right_ok = verdicts
    return left_ok, right_ok
