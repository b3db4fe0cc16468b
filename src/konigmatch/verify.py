"""Invariant sweeps, run as named per-graph checks over one walk.

Each check tests one theorem-backed invariant on one graph's
``GraphRecord`` against the brute-force oracle.  ``_walk`` takes a
sequence of graphs and a table of named checks and runs every check on
each graph.  ``corpus_verify`` walks the exhaustive connected-bipartite
corpus once with the eight corpus checks; a ``sweep_*`` walks it with
its one check.  The star-studded sweep is one more check, walked in the
calling process over base graphs of at most 7 vertices: it studs each
and checks the studded graph under its own oracle budget.  The CLI and
acceptance tests wrap these.

The record computes, once per graph, what several checks read, and is
dropped before the next graph: ``minimum_covers`` (the oracle's),
``matchings`` and ``maximal_matchings``.  The graph keeps its maximum
matching, searched when the corpus is built.
A check reads K(M) as a vertex mask (bit v for vertex v) with
``konig._konig_mask(m)``, which a matching computes once and keeps, and
compares masks; the path-structure check reads its paths, structures
and stranded sets as masks from the table of ``paths``.  A check with
one case per element (a matched edge, a vertex outside a structure, a
pair of meeting paths) counts its elements at once and builds a message
only for one that fails.

The walk is split into ``jobs`` shards, shard k holding every jobs-th
graph from the k-th.  The calling process walks shard 0 and ``os.fork``
children walk the others; the caller builds the graphs first, so a
corpus above the cap raises before any process starts.  A corpus graph
comes with its U side and its maximum matching, so the children inherit
both and the walk searches no graph.  Each child sends back, through a
pipe, each check's case count and the violations of each graph that has
any.  These are merged in the order of the graphs, so a result is the
same for every ``jobs``.  ``jobs=None`` means the CPUs this process may
run on (``available_cpus``); ``jobs=1``, or a platform without
``os.fork``, starts no process.  Each graph draws its reverse visit
orders from the seed and its index alone, so every shard draws what the
serial walk draws.  A test that counts calls by monkeypatching sees
only the calling process, so a per-graph count needs ``jobs=1``.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter

from .corpus import cached_corpus
from .graph import (
    BipartiteGraph,
    _bits,
    _covers,
    _edge_list,
    _irredundant,
    _mask,
)
from .konig import _konig_mask, konig_cover
from .matching import Matching, is_maximal, matching_number, maximum_matching
from .oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    hall_condition,
)
from .paths import (
    _PathMasks,
    classify_matching,
    verify_classification_witness,
)
from .reverse import reverse_konig, split_by_cover
from .stars import maximal_witness, restrict_cover, star_stud

# visit orders sampled per cover by the reverse round-trip sweep, on top
# of the default ascending order
SAMPLED_ORDERS = 5


@dataclass(slots=True)
class SweepResult:
    name: str
    cases: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, condition: bool, message: Callable[[], str]) -> None:
        """Count one case; ``message()`` describes it only if it fails."""
        self.cases += 1
        if not condition:
            self.violations.append(message())


@dataclass
class GraphRecord:
    """One walked graph, its index in the walk, and what more than one
    check reads of it."""

    graph: BipartiteGraph
    index: int

    @cached_property
    def minimum_covers(self) -> set[frozenset[int]]:
        return all_minimum_covers(self.graph)

    @cached_property
    def matchings(self) -> list[Matching]:
        return all_matchings(self.graph)

    @cached_property
    def maximal_matchings(self) -> list[Matching]:
        return all_maximal_matchings(self.graph)


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_Tally = list[tuple[int, list[tuple[int, list[str]]]]]


def _walk(graphs: Sequence[BipartiteGraph], checks: dict[str, Callable],
          jobs: int | None = None) -> list[SweepResult]:
    """Run each named check on every graph in one walk, in ``jobs``
    shards (see the module docstring); one result per check, in order."""
    if jobs is None:
        jobs = available_cpus()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if not hasattr(os, "fork"):
        jobs = 1
    # one shard at least, so no graphs walk to empty tallies
    jobs = max(1, min(jobs, len(graphs)))
    walk_shard = partial(_walk_shard, graphs, jobs, list(checks.values()))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, jobs):
            children.append(_fork_shard(walk_shard, k))
        tallies = [walk_shard(0)] + [_receive(r) for _, r in children]
    finally:
        for pid, r in children:
            os.close(r)
            # a child that has sent its result is exiting anyway; one still
            # walking because this process failed is stopped here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for name, shards in zip(checks, zip(*tallies)):
        result = SweepResult(name, sum(cases for cases, _ in shards))
        for _, violations in sorted((hit for _, hits in shards
                                     for hit in hits), key=itemgetter(0)):
            result.violations += violations
        results.append(result)
    return results


def _walk_shard(graphs: Sequence[BipartiteGraph], jobs: int,
                checks: list[Callable], k: int) -> _Tally:
    """Walk ``graphs[k::jobs]``: per check, its case count and the
    ``(graph index, violations)`` of each graph that has violations."""
    cases = [0] * len(checks)
    hits: list[list] = [[] for _ in checks]
    for index in range(k, len(graphs), jobs):
        record = GraphRecord(graphs[index], index)
        for i, check in enumerate(checks):
            result = SweepResult("")
            check(record, result)
            cases[i] += result.cases
            if result.violations:
                hits[i].append((index, result.violations))
    return list(zip(cases, hits))


def _sweep(max_vertices: int, name: str, jobs: int | None,
           check: Callable | None = None) -> SweepResult:
    """Walk the corpus with ``check``, or with the corpus check ``name``."""
    return _walk(cached_corpus(max_vertices),
                 {name: check or _CHECKS[name]}, jobs)[0]


def _fork_shard(walk_shard: Callable[[int], _Tally],
                k: int) -> tuple[int, int]:
    """Fork a child that walks shard ``k`` and pickles its tally, or the
    exception it raised, into a pipe; return its pid and the pipe's read
    end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    # the child ends in os._exit, so the parent's atexit hooks and
    # inherited stdio buffers never run or flush here
    try:
        os.close(r)
        try:
            payload = pickle.dumps((True, walk_shard(k)))
        except BaseException as exc:  # sent on, re-raised in the parent
            try:
                payload = pickle.dumps((False, exc))
            except Exception:
                payload = pickle.dumps((False, RuntimeError(repr(exc))))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _receive(r: int) -> _Tally:
    """Read one child's pickled tally from ``r``; re-raise what it raised."""
    chunks = []
    while chunk := os.read(r, 1 << 16):
        chunks.append(chunk)
    if not chunks:
        raise RuntimeError("a corpus worker ended without a result")
    ok, value = pickle.loads(b"".join(chunks))
    if not ok:
        raise value
    return value


def _describe(g: BipartiteGraph) -> str:
    return (f"G(left={sorted(g.left)}, right={sorted(g.right)}, "
            f"edges={sorted(g.edges)})")


def sweep_konig_equality(max_vertices: int = 8,
                         jobs: int | None = None) -> SweepResult:
    """Maximum matching size equals oracle minimum-cover size, and the
    procedure's cover from a maximum matching is minimum."""
    return _sweep(max_vertices, "konig-equality", jobs)


def _konig_equality(record: GraphRecord, result: SweepResult) -> None:
    g = record.graph
    mm = maximum_matching(g)
    min_size = len(next(iter(record.minimum_covers)))
    result.check(len(mm) == min_size,
                 lambda: f"{_describe(g)}: matching {len(mm)} != "
                         f"cover {min_size}")
    cover = konig_cover(mm)
    result.check(cover.is_minimum,
                 lambda: f"{_describe(g)}: maximum matching gave "
                         f"non-minimum cover {sorted(cover.vertices)}")


def sweep_reverse_round_trip(max_vertices: int = 8, seed: int = 0,
                             jobs: int | None = None) -> SweepResult:
    """Reverse procedure recovers every oracle minimum cover, for the
    default visit order and ``SAMPLED_ORDERS`` sampled permutations.

    Each cover is split once, and every visit order reuses that split;
    a cover whose split fails is tried again, and reported, per order.
    A graph's sampled orders depend on ``seed`` and its corpus index alone.
    """
    return _sweep(max_vertices, "reverse-round-trip", jobs,
                  partial(_reverse_round_trip, seed))


def _reverse_round_trip(seed: int, record: GraphRecord,
                        result: SweepResult) -> None:
    g = record.graph
    rng = random.Random(f"{seed}:{record.index}")
    for cover in sorted(record.minimum_covers, key=sorted):
        cover_mask = _mask(cover)
        orders = [None]
        roots = list(_bits(g.u_mask & ~cover_mask))
        for _ in range(SAMPLED_ORDERS):
            shuffled = roots[:]
            rng.shuffle(shuffled)
            orders.append(shuffled)
        split = None
        for order in orders:
            try:
                if split is None:
                    split = split_by_cover(g, cover)
                m = reverse_konig(split, order)
            except Exception as exc:  # report, keep sweeping
                result.check(False,
                             lambda: f"{_describe(g)} cover {sorted(cover)} "
                                     f"order {order}: {exc!r}")
                continue
            produced = _konig_mask(m)
            result.check(produced == cover_mask,
                         lambda: f"{_describe(g)} cover {sorted(cover)} "
                                 f"order {order}: got {list(_bits(produced))}")


def sweep_surjectivity(max_vertices: int = 8,
                       jobs: int | None = None) -> SweepResult:
    """Kőnig's procedure over all matchings reaches exactly the oracle's
    minimum covers."""
    return _sweep(max_vertices, "surjectivity", jobs)


def _surjectivity(record: GraphRecord, result: SweepResult) -> None:
    g = record.graph
    # K(M) always covers, so it is minimum iff it has ν(G) vertices
    nu = matching_number(g)
    reached = {k for k in map(_konig_mask, record.matchings)
               if k.bit_count() == nu}
    oracle = set(map(_mask, record.minimum_covers))
    result.check(reached == oracle,
                 lambda: f"{_describe(g)}: reached "
                         f"{sorted(list(_bits(k)) for k in reached)} != "
                         "oracle "
                         f"{sorted(map(sorted, record.minimum_covers))}")


def sweep_cycle_fibers(max_vertices: int = 8,
                       jobs: int | None = None) -> SweepResult:
    """Matchings whose symmetric difference is a disjoint union of cycles
    map to the same cover.

    These are exactly the pairs of distinct matchings that saturate the
    same vertices, so pairs are formed within each saturated set.  A
    vertex that M1 △ M2 touches is saturated by one of them, hence by
    both, and its M1-edge and M2-edge differ (an edge shared by both is
    not in the difference, and no other edge of either meets the
    vertex), so every vertex of M1 △ M2 has degree 2 in it.  Conversely,
    a vertex of such a cycle union is saturated by both, and every
    other vertex is met by the same edge in both or by none.
    """
    return _sweep(max_vertices, "cycle-fibers", jobs)


def _cycle_fibers(record: GraphRecord, result: SweepResult) -> None:
    g = record.graph
    by_saturated: dict[frozenset[int], list[Matching]] = {}
    for m in record.matchings:
        # the partner map's keys are the saturated vertices
        by_saturated.setdefault(frozenset(m._partner), []).append(m)
    for group in by_saturated.values():
        # a matching alone in its group is compared with none, so its
        # K(M) is never read
        for i, m1 in enumerate(group):
            for m2 in group[i + 1:]:
                result.check(_konig_mask(m1) == _konig_mask(m2),
                             lambda: f"{_describe(g)}: {sorted(m1.edges)} vs "
                                     f"{sorted(m2.edges)} give "
                                     "different covers")


def sweep_one_endpoint_and_minimal(max_vertices: int = 8,
                                   jobs: int | None = None) -> SweepResult:
    """Every matched edge has exactly one endpoint in the cover; for
    maximal matchings the result is a minimal vertex cover."""
    return _sweep(max_vertices, "one-endpoint-and-minimal", jobs)


def _one_endpoint_and_minimal(record: GraphRecord,
                              result: SweepResult) -> None:
    g = record.graph
    for m in record.matchings:
        k = _konig_mask(m)
        # one case per matched edge, counted at once
        result.cases += len(m.edges)
        for u, v in m.edges:
            if not (k >> u ^ k >> v) & 1:
                result.violations.append(
                    f"{_describe(g)} {sorted(m.edges)}: "
                    f"edge ({u},{v}) not split by cover")
        if is_maximal(m):
            result.check(_covers(g, k) and _irredundant(g, k),
                         lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                 "maximal matching gave non-minimal result")


def sweep_classification(max_vertices: int = 8,
                         jobs: int | None = None) -> SweepResult:
    """The classification agrees with the direct minimum-cover check for
    every maximal matching, and its witness proves its verdict."""
    return _sweep(max_vertices, "classification", jobs)


def _classification(record: GraphRecord, result: SweepResult) -> None:
    for m in record.maximal_matchings:
        verdict = classify_matching(m)
        direct = konig_cover(m).is_minimum
        proved = verify_classification_witness(m, verdict)
        result.check(verdict.is_minimum == direct and proved,
                     lambda: f"{_describe(record.graph)} {sorted(m.edges)}: "
                             f"classified {verdict.is_minimum}, "
                             f"direct {direct}, proved {proved}")


def sweep_path_structure_properties(max_vertices: int = 8,
                                    jobs: int | None = None) -> SweepResult:
    """Pair-level localization outside the structure, restricted cover
    cardinality over the single-root substructure, strict decrease
    exactly when two V-endpoints are stranded, and the hat reduction."""
    return _sweep(max_vertices, "path-structure-properties", jobs)


def _path_structure_properties(record: GraphRecord,
                               result: SweepResult) -> None:
    g = record.graph
    u_mask = g.u_mask
    u_size = u_mask.bit_count()
    n = len(g._adjacency)
    cases = 0  # added to the result at once
    # a bit per edge, under both orders of its ends
    edge_bit: dict[tuple[int, int], int] = {}
    for k, (a, b) in enumerate(_edge_list(g)):
        edge_bit[a, b] = edge_bit[b, a] = 1 << k
    for m in record.maximal_matchings:
        # every edge has one endpoint in U, so a matching as large as U
        # saturates it and leaves no root for an augmenting path
        if len(m) == u_size:
            continue
        table = _PathMasks(m)
        paths, masks = table.paths, table.masks
        if not paths:
            continue
        # each path's edges as a mask (a simple path's edges are
        # distinct, so their sum is their union)
        edges = [sum(map(edge_bit.__getitem__, zip(q, q[1:])))
                 for q in paths]
        # Kp: K with the M-partners of its vertices added, so a vertex
        # is in Kp iff it or its partner is in K
        matched = [1 << u | 1 << v for u, v in m.edges]
        k_before = _konig_mask(m)
        kp_before = _with_partners(k_before, matched)
        k_size = k_before.bit_count()
        for (i, family, structure, z_after, sub, stranded, _,
             hat) in table.structures():
            p = paths[i]
            root, end = p[0], p[-1]
            k_after = u_mask ^ z_after  # K(M △ P)
            # localization: outside the structure, membership of a
            # matched pair (or a lone unmatched vertex) is preserved;
            # one case per vertex.  These and the three cases below are
            # counted at once
            cases += n + 3 - structure.bit_count()
            moved = (kp_before ^ _with_partners(k_after, matched)) & ~structure
            if moved:
                for r in _bits(moved):
                    result.violations.append(
                        f"{_where(g, m, p)}: localization fails at {r}")
            # the substructure of paths sharing p's root and endpoint
            # has a unique unsaturated root; restricted to it, the
            # cover keeps its cardinality under augmentation
            if (k_before & sub).bit_count() != (k_after & sub).bit_count():
                result.violations.append(
                    f"{_where(g, m, p)}: unique-root restricted equality "
                    "fails")
            # two stranded unsaturated V-vertices iff strict decrease
            if (stranded.bit_count() >= 2) != (k_size > k_after.bit_count()):
                result.violations.append(
                    f"{_where(g, m, p)}: stranded count and cover decrease "
                    "disagree")
            # hat reduction preserves the cardinality equality, at once
            # when nothing is cut away
            if hat != structure:
                full_eq = ((k_before & structure).bit_count()
                           == (k_after & structure).bit_count())
                hat_eq = ((k_before & hat).bit_count()
                          == (k_after & hat).bit_count())
                if full_eq != hat_eq:
                    result.violations.append(
                        f"{_where(g, m, p)}: hat reduction disagrees")
            # vertex-wise intersection implies edge-wise or endpoints
            # only; each pair of meeting paths is checked once, from
            # the earlier one (paths are enumerated in sorted order)
            p_mask, p_edges = masks[i], edges[i]
            p_ends = 1 << root | 1 << end
            for j in family[family.index(i) + 1:]:
                q = paths[j]
                shared = p_mask & masks[j]
                if not p_edges & edges[j]:
                    cases += 1
                    if shared & ~(p_ends & (1 << q[0] | 1 << q[-1])):
                        result.violations.append(
                            f"{_describe(g)}: paths share interior "
                            "vertices without sharing edges")
                if shared.bit_count() >= 2:
                    # the two path orders may disagree on the shared
                    # vertices, but never as exact reverses; that
                    # would splice into a path between two unsaturated
                    # vertices of the same side.  Paths with the same
                    # root or the same endpoint agree at that end,
                    # which two or more distinct vertices in reverse
                    # cannot
                    cases += 1
                    if q[0] == root or q[-1] == end:
                        continue
                    in_p = [v for v in p if shared >> v & 1]
                    in_q = [v for v in q if shared >> v & 1]
                    if in_p == in_q[::-1]:
                        result.violations.append(
                            f"{_describe(g)}: shared vertices in exactly "
                            "reversed order")
    result.cases += cases


def _with_partners(k: int, matched: list[int]) -> int:
    """The vertex mask ``k`` with the partners of its saturated vertices
    added; ``matched`` holds each matched edge as a vertex mask."""
    for edge in matched:
        if k & edge:
            k |= edge
    return k


def _where(g: BipartiteGraph, m: Matching, p: tuple[int, ...]) -> str:
    return f"{_describe(g)} {sorted(m.edges)} p={list(p)}"


def sweep_hall_consistency(max_vertices: int = 8,
                           jobs: int | None = None) -> SweepResult:
    """Hall's condition on a side holds iff a maximum matching saturates it."""
    return _sweep(max_vertices, "hall-consistency", jobs)


def _hall_consistency(record: GraphRecord, result: SweepResult) -> None:
    g = record.graph
    left = g.left_mask
    free = _mask(g._adjacency) & ~_mask(maximum_matching(g)._partner)
    for side, vertices, hall in zip(("left", "right"), (left, ~left),
                                    hall_condition(g)):
        saturated = not vertices & free
        result.check(hall == saturated,
                     lambda: f"{_describe(g)}: Hall mismatch on {side}")


def sweep_star_studded(max_vertices: int = 7) -> SweepResult:
    """Star-studded graphs reach every minimum cover from a maximal
    matching, and restriction reaches every base cover.

    Each minimum cover is reached when ``maximal_witness`` finds a
    maximal matching for it from the cover's own split.  The check walks
    the base graphs in this process, under a budget for their studs.
    """
    budget = OracleBudget(max_vertices=5 * max_vertices + 1,
                          max_subsets=2 ** 21)
    return _sweep(max_vertices, "star-studded", 1,
                  partial(_star_studded, budget))


def _star_studded(budget: OracleBudget, record: GraphRecord,
                  result: SweepResult) -> None:
    h = record.graph
    ssg = star_stud(h)
    wanted = all_minimum_covers(ssg.full, budget)
    reached = {c for c in wanted
               if maximal_witness(ssg.full, c, budget) is not None}
    result.check(wanted <= reached,
                 lambda: f"St({_describe(h)}) is not enumeratively "
                         "reachable")
    base_covers = all_minimum_covers(h, budget)
    restricted = {restrict_cover(ssg, c) for c in reached}
    result.check(base_covers <= restricted,
                 lambda: f"St({_describe(h)}): base covers "
                         f"{sorted(map(sorted, base_covers - restricted))}"
                         " not reached after restriction")


_CHECKS = {
    "konig-equality": _konig_equality,
    "reverse-round-trip": partial(_reverse_round_trip, 0),
    "surjectivity": _surjectivity,
    "cycle-fibers": _cycle_fibers,
    "one-endpoint-and-minimal": _one_endpoint_and_minimal,
    "classification": _classification,
    "path-structure-properties": _path_structure_properties,
    "hall-consistency": _hall_consistency,
}

ALL_SWEEPS = [
    sweep_konig_equality,
    sweep_reverse_round_trip,
    sweep_surjectivity,
    sweep_cycle_fibers,
    sweep_one_endpoint_and_minimal,
    sweep_classification,
    sweep_path_structure_properties,
    sweep_hall_consistency,
]


def corpus_verify(max_vertices: int = 8,
                  jobs: int | None = None) -> list[SweepResult]:
    """Walk the corpus once in ``jobs`` shards with the eight checks,
    then the star-studded sweep on at most 7 base vertices."""
    return _walk(cached_corpus(max_vertices), _CHECKS, jobs) + [
        sweep_star_studded(min(max_vertices, 7))]
