"""Exponential-time ground truth for small graphs.

Everything here enumerates exhaustively and independently of the
polynomial procedures, so the clever code paths can be checked against
it.  Enumeration aborts cleanly once a budget is exceeded.  The searches
keep their state on explicit stacks, not in self-referencing closures, so
their results are freed by reference counting once the caller drops them.
The searches read the graph's neighbour masks (``graph``) and build no
adjacency of their own.

Minimum covers are found by branching on vertices over bitmasks: at the
first uncovered edge, its endpoint x of larger degree is in the cover, or
x is out and all of N(x) is in.  The target size deepens from the size of
a greedy matching, a sound floor without ν because no cover is smaller
than any matching, so the search reads nothing of ``matching.py``'s
search or of ``konig.py``.  Its budget counts search nodes.

Each matching is built as a walk reaches it.  The walk over all
matchings keeps one stack entry per matching: its chosen edges and the
bitmask of the later edges compatible with them, so each step lists a
result; ``all_matchings`` runs it and lists as it walks.  Only the
maximal walk is lazy.  It decides the sorted edges one by one and cuts a
branch once an edge can never be added: ``iter_maximal_matchings``
yields each maximal matching as it reaches it, so an existence check
(such as ``stars.maximal_witness`` on one component) can stop the walk
once it has its answer, and nothing it did not draw is ever built.
``all_maximal_matchings`` collects that walk into a list, in the order
``all_matchings`` lists the same matchings.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import BudgetExceeded
from .graph import BipartiteGraph, _bits, _edge_list, _mask
from .matching import Matching


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 16
    # K7,7's 130,922 matchings fit; K8,8's 1,441,729 are refused early
    max_subsets: int = 2 ** 17


def _check_vertex_budget(g: BipartiteGraph, b: OracleBudget) -> None:
    n = len(g._adjacency)
    if n > b.max_vertices:
        raise BudgetExceeded(f"{n} vertices exceeds budget {b.max_vertices}")


def all_minimum_covers(g: BipartiteGraph,
                       b: OracleBudget | None = None) -> set[frozenset[int]]:
    """Every vertex cover of minimum cardinality.

    Branches on vertices over bitmasks: at the first uncovered edge in
    sorted order, its endpoint x of larger degree (the left one on a
    tie) is either in the cover, or out of it with all of N(x) in.  The
    two branches are disjoint and cover every case, and both cover every
    edge of x, so each resumes the edge scan after that edge.  A branch
    whose chosen set would exceed the target size k is cut.

    k deepens from the size of a greedy matching over the sorted edges.
    No cover is smaller than a matching (weak duality), so no level below
    is skipped wrongly, and neither ν nor the matching code is read.  At
    the first level with any leaf, k is the minimum cover size, and every
    leaf is a cover of at most k vertices, hence a minimum cover; every
    minimum cover is reached, since one branch always stays inside it.

    A budget step is one search node taken off the stack, counted over
    all levels; ``BudgetExceeded`` is raised past ``b.max_subsets`` steps.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    near = g._adjacency
    # per edge: its endpoints' bitmask, and the branching endpoint's bit
    # and neighbour bitmask
    plan = []
    k = 0  # grows to the size of a greedy matching: the starting level
    matched = 0
    for u, v in _edge_list(g):
        mask = (1 << u) | (1 << v)
        x = v if near[v].bit_count() > near[u].bit_count() else u
        plan.append((mask, 1 << x, near[x]))
        if not matched & mask:
            matched |= mask
            k += 1
    n = len(plan)
    steps = 0
    while True:
        out: set[int] = set()
        # (chosen bitmask, its size, next edge to scan)
        stack = [(0, 0, 0)]
        while stack:
            chosen, size, i = stack.pop()
            steps += 1
            if steps > b.max_subsets:
                raise BudgetExceeded(
                    "cover enumeration exceeded subset budget")
            while i < n and chosen & plan[i][0]:
                i += 1
            if i == n:
                out.add(chosen)
            elif size < k:
                _, bit, neighbors = plan[i]
                added = neighbors & ~chosen
                grown = size + added.bit_count()
                if grown <= k:
                    stack.append((chosen | added, grown, i + 1))
                stack.append((chosen | bit, size + 1, i + 1))
        if out:
            return {frozenset(_bits(c)) for c in out}
        k += 1


def _maximal_matchings(g: BipartiteGraph,
                       max_steps: int) -> Iterator[Matching]:
    """Yield the maximal matchings of ``g``, in the order of
    ``all_matchings``.

    Decides the sorted edges one by one, skip before take, with an
    explicit stack; the used endpoints are one bitmask.  A vertex still
    free when its last edge is skipped is *closed free*, and a branch is
    cut as soon as two adjacent vertices are closed free: their edge can
    never be added.  Every leaf reached is then maximal.  Raises
    ``BudgetExceeded`` once the visited nodes exceed ``max_steps``; the
    walk advances only as far as the caller draws.
    """
    edges = _edge_list(g)
    last: dict[int, int] = {}  # vertex -> index of its last edge
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    near = g._adjacency
    # per edge: its endpoints' bitmask, the edge, and the bitmask of the
    # endpoints whose last edge it is
    plan = [((1 << u) | (1 << v), (u, v),
             sum(1 << x for x in (u, v) if last[x] == i))
            for i, (u, v) in enumerate(edges)]
    n = len(plan)
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
                if newly == mask or near[newly.bit_length() - 1] \
                        & closed_free:
                    break
                closed_free |= newly
        else:
            yield Matching._unchecked(g, chosen)
        steps += i - start + 1
        if steps > max_steps:
            raise BudgetExceeded("maximal-matching enumeration exceeded "
                                 "budget")


def all_matchings(g: BipartiteGraph,
                  b: OracleBudget | None = None) -> list[Matching]:
    """Every edge subset that is a matching, the empty one included: the
    subsets of the sorted edges in skip-before-take order, the empty
    matching first.

    Each stack entry is one matching, its chosen edges and the bitmask of
    the later edges compatible with all of them (sharing no endpoint).  A
    pop lists that matching and pushes one child per compatible edge, in
    ascending edge order, so the child with the highest edge is popped
    first: after a matching come the matchings that extend it, the ones
    adding a later edge before the ones adding an earlier edge, which is
    the skip-before-take order.  Raises ``BudgetExceeded`` before building
    matching ``b.max_subsets + 1``.
    """
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    edges = _edge_list(g)
    every = (1 << len(edges)) - 1
    incident = dict.fromkeys(g._adjacency, 0)  # vertex -> its edges' bits
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    # edge bit -> the edge, and the bitmask of the edges that share no
    # endpoint with it
    plan = {1 << i: ((u, v), every & ~(incident[u] | incident[v]))
            for i, (u, v) in enumerate(edges)}
    found: list[Matching] = []
    # (chosen edges, bitmask of the later edges that can still be added)
    stack: list[tuple] = [((), every)]
    while stack:
        chosen, addable = stack.pop()
        if len(found) == b.max_subsets:
            raise BudgetExceeded("matching enumeration exceeded budget")
        found.append(Matching._unchecked(g, chosen))
        while addable:
            bit = addable & -addable
            # the edges are taken in ascending order, so what is left of
            # addable lies above this one
            addable ^= bit
            edge, compatible = plan[bit]
            stack.append((chosen + (edge,), addable & compatible))
    return found


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
    return _maximal_matchings(g, 64 * b.max_subsets)


def all_maximal_matchings(g: BipartiteGraph,
                          b: OracleBudget | None = None) -> list[Matching]:
    """Exactly the maximal matchings, in the order ``all_matchings``
    lists them: ``iter_maximal_matchings`` collected into a list."""
    return list(iter_maximal_matchings(g, b))


def hall_condition(g: BipartiteGraph,
                   b: OracleBudget | None = None) -> tuple[bool, bool]:
    """Whether |W| ≤ |N(W)| for every subset W of the left side, and of
    the right side, in that order.  The vertex budget is checked first,
    and each side's subset budget before that side is scanned."""
    b = b or OracleBudget()
    _check_vertex_budget(g, b)
    verdicts = []
    adjacency = g._adjacency
    left = g.left_mask
    for side in (left, _mask(adjacency) ^ left):
        near = [adjacency[x] for x in _bits(side)]
        if 2 ** len(near) > b.max_subsets:
            raise BudgetExceeded("Hall subset scan exceeds budget")
        for w in chain.from_iterable(combinations(near, size)
                                     for size in range(1, len(near) + 1)):
            neighborhood = 0
            for x in w:
                neighborhood |= x
            if len(w) > neighborhood.bit_count():
                verdicts.append(False)
                break
        else:
            verdicts.append(True)
    left_ok, right_ok = verdicts
    return left_ok, right_ok
