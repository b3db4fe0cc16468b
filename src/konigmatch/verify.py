"""Corpus-wide invariant sweeps.

Each sweep walks the exhaustive connected-bipartite corpus, checks one
theorem-backed invariant against the brute-force oracle, and returns the
number of cases checked plus any violations.  The acceptance tests and
the ``corpus-verify`` CLI command are both thin wrappers over these
functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .corpus import cached_corpus
from .errors import BudgetExceeded
from .graph import BipartiteGraph, procedure_sides
from .konig import is_minimum_cover, is_vertex_cover, is_minimal_cover, konig_cover
from .matching import (
    Matching,
    is_disjoint_cycle_union,
    is_maximal,
    maximum_matching,
    symmetric_difference,
)
from .oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    hall_condition,
)
from .paths import (
    check_subgraph,
    classify_matching,
    enumerate_augmenting_paths,
    hat_subgraph,
    path_structure,
)
from .reverse import reverse_konig
from .stars import reached_minimum_covers, restrict_cover, star_stud


@dataclass
class SweepResult:
    name: str
    cases: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, condition: bool, message: str) -> None:
        self.cases += 1
        if not condition:
            self.violations.append(message)


def _describe(g: BipartiteGraph) -> str:
    return (f"G(left={sorted(g.left)}, right={sorted(g.right)}, "
            f"edges={sorted(g.edges)})")


def sweep_konig_equality(max_vertices: int = 8,
                         budget: OracleBudget | None = None) -> SweepResult:
    """Maximum matching size equals oracle minimum-cover size, and the
    procedure's cover from a maximum matching is minimum."""
    result = SweepResult("konig-equality")
    for g in cached_corpus(max_vertices):
        mm = maximum_matching(g)
        covers = all_minimum_covers(g, budget)
        min_size = len(next(iter(covers)))
        result.check(len(mm) == min_size,
                     f"{_describe(g)}: matching {len(mm)} != cover {min_size}")
        cover = konig_cover(g, mm)
        result.check(cover.is_minimum,
                     f"{_describe(g)}: maximum matching gave non-minimum "
                     f"cover {sorted(cover.vertices)}")
    return result


def sweep_reverse_round_trip(max_vertices: int = 8,
                             budget: OracleBudget | None = None,
                             sampled_orders: int = 5,
                             seed: int = 0) -> SweepResult:
    """Reverse procedure recovers every oracle minimum cover, for the
    default visit order and several sampled permutations."""
    result = SweepResult("reverse-round-trip")
    rng = random.Random(seed)
    for g in cached_corpus(max_vertices):
        for cover in sorted(all_minimum_covers(g, budget), key=sorted):
            orders = [None]
            u_side, _ = procedure_sides(g)
            roots = sorted(u_side - cover)
            for _ in range(sampled_orders):
                shuffled = roots[:]
                rng.shuffle(shuffled)
                orders.append(shuffled)
            for order in orders:
                try:
                    res = reverse_konig(g, cover, order)
                except Exception as exc:  # report, keep sweeping
                    result.check(False,
                                 f"{_describe(g)} cover {sorted(cover)} "
                                 f"order {order}: {exc!r}")
                    continue
                produced = konig_cover(g, res.combined)
                result.check(produced.vertices == cover,
                             f"{_describe(g)} cover {sorted(cover)} order "
                             f"{order}: got {sorted(produced.vertices)}")
    return result


def sweep_surjectivity(max_vertices: int = 8,
                       budget: OracleBudget | None = None) -> SweepResult:
    """Kőnig's procedure over all matchings reaches exactly the oracle's
    minimum covers."""
    result = SweepResult("surjectivity")
    for g in cached_corpus(max_vertices):
        wanted = all_minimum_covers(g, budget)
        reached = set()
        for m in all_matchings(g, budget):
            cover = konig_cover(g, m)
            if cover.is_minimum:
                reached.add(cover.vertices)
        result.check(reached == wanted,
                     f"{_describe(g)}: reached {sorted(map(sorted, reached))}"
                     f" != oracle {sorted(map(sorted, wanted))}")
    return result


def sweep_cycle_fibers(max_vertices: int = 8,
                       budget: OracleBudget | None = None) -> SweepResult:
    """Matchings whose symmetric difference is a disjoint union of cycles
    map to the same cover."""
    result = SweepResult("cycle-fibers")
    for g in cached_corpus(max_vertices):
        matchings = all_matchings(g, budget)
        covers = [konig_cover(g, m).vertices for m in matchings]
        for i, m1 in enumerate(matchings):
            for j in range(i + 1, len(matchings)):
                m2 = matchings[j]
                diff = symmetric_difference(m1, m2)
                if not diff or not is_disjoint_cycle_union(g, diff):
                    continue
                result.check(covers[i] == covers[j],
                             f"{_describe(g)}: {sorted(m1.edges)} vs "
                             f"{sorted(m2.edges)} give different covers")
    return result


def sweep_one_endpoint_and_minimal(max_vertices: int = 8,
                                   budget: OracleBudget | None = None,
                                   ) -> SweepResult:
    """Every matched edge has exactly one endpoint in the cover; for
    maximal matchings the result is a minimal vertex cover."""
    result = SweepResult("one-endpoint-and-minimal")
    for g in cached_corpus(max_vertices):
        for m in all_matchings(g, budget):
            cover = konig_cover(g, m)
            for u, v in m.edges:
                result.check((u in cover.vertices) != (v in cover.vertices),
                             f"{_describe(g)} {sorted(m.edges)}: edge "
                             f"({u},{v}) not split by cover")
            if is_maximal(g, m):
                result.check(
                    cover.is_cover and is_minimal_cover(g, cover.vertices),
                    f"{_describe(g)} {sorted(m.edges)}: maximal matching "
                    "gave non-minimal result")
    return result


def sweep_classification(max_vertices: int = 8,
                         budget: OracleBudget | None = None) -> SweepResult:
    """The structural classification agrees with the direct minimum-cover
    check for every maximal matching."""
    result = SweepResult("classification")
    for g in cached_corpus(max_vertices):
        for m in all_maximal_matchings(g, budget):
            verdict = classify_matching(g, m)
            direct = konig_cover(g, m).is_minimum
            result.check(verdict.is_minimum == direct,
                         f"{_describe(g)} {sorted(m.edges)}: classified "
                         f"{verdict.is_minimum}, direct {direct}")
    return result


def sweep_path_structure_properties(max_vertices: int = 8,
                                    budget: OracleBudget | None = None,
                                    ) -> SweepResult:
    """Pair-level localization outside the structure, restricted cover
    cardinality over the single-root substructure, strict decrease
    exactly when two V-endpoints are stranded, and the hat reduction."""
    result = SweepResult("path-structure-properties")
    for g in cached_corpus(max_vertices):
        _, v_side = procedure_sides(g)
        for m in all_maximal_matchings(g, budget):
            paths = enumerate_augmenting_paths(g, m)
            k_before = konig_cover(g, m).vertices
            for idx, p in enumerate(paths):
                ps = path_structure(g, m, p)
                m_aug = Matching(g, m.edges ^ p.edges)
                k_after = konig_cover(g, m_aug).vertices
                # localization: outside the structure, membership of a
                # matched pair (or a lone unmatched vertex) is preserved
                for r in sorted(g.vertices - set(ps.subgraph.vertices)):
                    partner = m.partner(r)
                    pair = {r} if partner is None else {r, partner}
                    result.check(bool(pair & k_before) == bool(pair & k_after),
                                 f"{_describe(g)} {sorted(m.edges)} "
                                 f"p={list(p.vertices)}: localization "
                                 f"fails at {r}")
                # the substructure of paths sharing p's root and endpoint
                # has a unique unsaturated root; restricted to it, the
                # cover keeps its cardinality under augmentation
                sub = set()
                for q in ps.family:
                    if (q.vertices[0] == p.vertices[0]
                            and q.vertices[-1] == p.vertices[-1]):
                        sub.update(q.vertices)
                result.check(len(k_before & sub) == len(k_after & sub),
                             f"{_describe(g)} {sorted(m.edges)} "
                             f"p={list(p.vertices)}: unique-root "
                             "restricted equality fails")
                # two stranded unsaturated V-vertices iff strict decrease
                outside = set(ps.subgraph.vertices) - \
                    set(check_subgraph(ps).vertices)
                stranded = {v for v in outside & v_side
                            if not m.saturates(v)}
                result.check((len(stranded) >= 2)
                             == (len(k_before) > len(k_after)),
                             f"{_describe(g)} {sorted(m.edges)} "
                             f"p={list(p.vertices)}: stranded count and "
                             "cover decrease disagree")
                # hat reduction preserves the cardinality equality
                hat = hat_subgraph(ps)
                full_eq = (len(k_before & set(ps.subgraph.vertices))
                           == len(k_after & set(ps.subgraph.vertices)))
                hat_eq = (len(k_before & set(hat.vertices))
                          == len(k_after & set(hat.vertices)))
                result.check(full_eq == hat_eq,
                             f"{_describe(g)} {sorted(m.edges)} "
                             f"p={list(p.vertices)}: hat reduction disagrees")
                # vertex-wise intersection implies edge-wise or endpoints only
                for q in paths[idx + 1:]:
                    shared = set(p.vertices) & set(q.vertices)
                    if shared and not (p.edges & q.edges):
                        endpoints = {p.vertices[0], p.vertices[-1]} & \
                            {q.vertices[0], q.vertices[-1]}
                        result.check(shared <= endpoints,
                                     f"{_describe(g)}: paths share interior "
                                     "vertices without sharing edges")
                    if len(shared) >= 2:
                        # the two path orders may disagree on the shared
                        # vertices, but never as exact reverses; that
                        # would splice into a path between two unsaturated
                        # vertices of the same side
                        in_p = [v for v in p.vertices if v in shared]
                        in_q = [v for v in q.vertices if v in shared]
                        result.check(in_p != in_q[::-1],
                                     f"{_describe(g)}: shared vertices in "
                                     "exactly reversed order")
    return result


def sweep_hall_consistency(max_vertices: int = 8,
                           budget: OracleBudget | None = None) -> SweepResult:
    """Hall's condition on a side holds iff a maximum matching saturates it."""
    result = SweepResult("hall-consistency")
    for g in cached_corpus(max_vertices):
        mm = maximum_matching(g)
        for side, vertices in (("left", g.left), ("right", g.right)):
            saturated = all(mm.saturates(v) for v in vertices)
            result.check(hall_condition(g, side, budget) == saturated,
                         f"{_describe(g)}: Hall mismatch on {side}")
    return result


def sweep_star_studded(max_vertices: int = 6) -> SweepResult:
    """Star-studded graphs reach every minimum cover from a maximal
    matching, and restriction reaches every base cover."""
    result = SweepResult("star-studded")
    budget = OracleBudget(max_vertices=5 * max_vertices + 1,
                          max_subsets=2 ** 21)
    for h in cached_corpus(max_vertices):
        ssg = star_stud(h)
        reached = reached_minimum_covers(ssg.full, budget)
        result.check(all_minimum_covers(ssg.full, budget) <= reached,
                     f"St({_describe(h)}) is not enumeratively reachable")
        base_covers = all_minimum_covers(h, budget)
        restricted = {restrict_cover(ssg, c) for c in reached}
        result.check(base_covers <= restricted,
                     f"St({_describe(h)}): base covers "
                     f"{sorted(map(sorted, base_covers - restricted))} "
                     "not reached after restriction")
    return result


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
                  include_stars: bool = True) -> list[SweepResult]:
    """Run every sweep; raises ``BudgetExceeded`` for oversized requests."""
    budget = OracleBudget()
    if max_vertices > budget.max_vertices:
        raise BudgetExceeded(
            f"max_vertices {max_vertices} exceeds oracle budget "
            f"{budget.max_vertices}")
    results = [sweep(max_vertices, budget) for sweep in ALL_SWEEPS]
    if include_stars:
        results.append(sweep_star_studded(min(max_vertices, 6)))
    return results
