"""Corpus-wide invariant sweeps.

Each sweep walks the exhaustive connected-bipartite corpus, checks one
theorem-backed invariant against the brute-force oracle, and returns the
number of cases checked plus any violations.  The acceptance tests and
the ``corpus-verify`` CLI command are both thin wrappers over these
functions.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .corpus import cached_corpus
from .graph import BipartiteGraph, procedure_sides
from .konig import konig_cover, konig_vertices
from .matching import is_maximal, maximum_matching
from .oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    hall_condition,
)
from .paths import classify_matching, hat_vertices, path_structures
from .reverse import reverse_konig, split_by_cover
from .stars import (
    maximal_witness,
    reached_minimum_covers,
    restrict_cover,
    star_stud,
)

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


def _describe(g: BipartiteGraph) -> str:
    return (f"G(left={sorted(g.left)}, right={sorted(g.right)}, "
            f"edges={sorted(g.edges)})")


def sweep_konig_equality(max_vertices: int = 8) -> SweepResult:
    """Maximum matching size equals oracle minimum-cover size, and the
    procedure's cover from a maximum matching is minimum."""
    result = SweepResult("konig-equality")
    for g in cached_corpus(max_vertices):
        mm = maximum_matching(g)
        covers = all_minimum_covers(g)
        min_size = len(next(iter(covers)))
        result.check(len(mm) == min_size,
                     lambda: f"{_describe(g)}: matching {len(mm)} != "
                             f"cover {min_size}")
        cover = konig_cover(mm)
        result.check(cover.is_minimum,
                     lambda: f"{_describe(g)}: maximum matching gave "
                             f"non-minimum cover {sorted(cover.vertices)}")
    return result


def sweep_reverse_round_trip(max_vertices: int = 8,
                             seed: int = 0) -> SweepResult:
    """Reverse procedure recovers every oracle minimum cover, for the
    default visit order and ``SAMPLED_ORDERS`` sampled permutations.

    Each cover is split once, and every visit order reuses that split;
    a cover whose split fails is tried again, and reported, per order.
    """
    result = SweepResult("reverse-round-trip")
    rng = random.Random(seed)
    for g in cached_corpus(max_vertices):
        u_side, _ = procedure_sides(g)
        for cover in sorted(all_minimum_covers(g), key=sorted):
            orders = [None]
            roots = sorted(u_side - cover)
            for _ in range(SAMPLED_ORDERS):
                shuffled = roots[:]
                rng.shuffle(shuffled)
                orders.append(shuffled)
            split = None
            for order in orders:
                try:
                    if split is None:
                        split = split_by_cover(g, cover)
                    res = reverse_konig(split, order)
                except Exception as exc:  # report, keep sweeping
                    result.check(False,
                                 lambda: f"{_describe(g)} cover "
                                         f"{sorted(cover)} order {order}: "
                                         f"{exc!r}")
                    continue
                produced = konig_vertices(res.combined)
                result.check(produced == cover,
                             lambda: f"{_describe(g)} cover {sorted(cover)} "
                                     f"order {order}: got "
                                     f"{sorted(produced)}")
    return result


def sweep_surjectivity(max_vertices: int = 8) -> SweepResult:
    """Kőnig's procedure over all matchings reaches exactly the oracle's
    minimum covers."""
    result = SweepResult("surjectivity")
    for g in cached_corpus(max_vertices):
        wanted = all_minimum_covers(g)
        reached = reached_minimum_covers(all_matchings(g))
        result.check(reached == wanted,
                     lambda: f"{_describe(g)}: reached "
                             f"{sorted(map(sorted, reached))} != oracle "
                             f"{sorted(map(sorted, wanted))}")
    return result


def sweep_cycle_fibers(max_vertices: int = 8) -> SweepResult:
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
    result = SweepResult("cycle-fibers")
    for g in cached_corpus(max_vertices):
        by_saturated: dict[frozenset[int], list] = {}
        for m in all_matchings(g):
            saturated = frozenset(v for edge in m.edges for v in edge)
            by_saturated.setdefault(saturated, []).append(
                (m, konig_vertices(m)))
        for group in by_saturated.values():
            for i, (m1, cover1) in enumerate(group):
                for m2, cover2 in group[i + 1:]:
                    result.check(cover1 == cover2,
                                 lambda: f"{_describe(g)}: "
                                         f"{sorted(m1.edges)} vs "
                                         f"{sorted(m2.edges)} give "
                                         "different covers")
    return result


def sweep_one_endpoint_and_minimal(max_vertices: int = 8) -> SweepResult:
    """Every matched edge has exactly one endpoint in the cover; for
    maximal matchings the result is a minimal vertex cover."""
    result = SweepResult("one-endpoint-and-minimal")
    for g in cached_corpus(max_vertices):
        for m in all_matchings(g):
            cover = konig_cover(m)
            for u, v in m.edges:
                result.check((u in cover.vertices) != (v in cover.vertices),
                             lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                     f"edge ({u},{v}) not split by cover")
            if is_maximal(m):
                result.check(cover.is_minimal,
                             lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                     "maximal matching gave non-minimal "
                                     "result")
    return result


def sweep_classification(max_vertices: int = 8) -> SweepResult:
    """The structural classification agrees with the direct minimum-cover
    check for every maximal matching."""
    result = SweepResult("classification")
    for g in cached_corpus(max_vertices):
        for m in all_maximal_matchings(g):
            verdict = classify_matching(m)
            direct = konig_cover(m).is_minimum
            result.check(verdict.is_minimum == direct,
                         lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                 f"classified {verdict.is_minimum}, "
                                 f"direct {direct}")
    return result


def sweep_path_structure_properties(max_vertices: int = 8) -> SweepResult:
    """Pair-level localization outside the structure, restricted cover
    cardinality over the single-root substructure, strict decrease
    exactly when two V-endpoints are stranded, and the hat reduction."""
    result = SweepResult("path-structure-properties")
    for g in cached_corpus(max_vertices):
        u_side, _ = procedure_sides(g)
        vertices = g.vertices
        for m in all_maximal_matchings(g):
            k_before = konig_vertices(m)
            for ps in path_structures(m):
                p = ps.base_path

                def where() -> str:
                    return (f"{_describe(g)} {sorted(m.edges)} "
                            f"p={list(p.vertices)}")

                structure = ps.vertices
                k_after = u_side ^ ps.z_after  # K(M △ P)
                # localization: outside the structure, membership of a
                # matched pair (or a lone unmatched vertex) is preserved
                for r in sorted(vertices - structure):
                    partner = m.partner(r)  # None is in neither cover
                    result.check((r in k_before or partner in k_before)
                                 == (r in k_after or partner in k_after),
                                 lambda: f"{where()}: localization fails "
                                         f"at {r}")
                # the substructure of paths sharing p's root and endpoint
                # has a unique unsaturated root; restricted to it, the
                # cover keeps its cardinality under augmentation
                sub = set()
                for q in ps.family:
                    if (q.vertices[0] == p.vertices[0]
                            and q.vertices[-1] == p.vertices[-1]):
                        sub.update(q.vertices)
                result.check(len(k_before & sub) == len(k_after & sub),
                             lambda: f"{where()}: unique-root restricted "
                                     "equality fails")
                # two stranded unsaturated V-vertices iff strict decrease
                result.check((len(ps.stranded) >= 2)
                             == (len(k_before) > len(k_after)),
                             lambda: f"{where()}: stranded count and cover "
                                     "decrease disagree")
                # hat reduction preserves the cardinality equality
                hat = hat_vertices(ps)
                full_eq = (len(k_before & structure)
                           == len(k_after & structure))
                hat_eq = len(k_before & hat) == len(k_after & hat)
                result.check(full_eq == hat_eq,
                             lambda: f"{where()}: hat reduction disagrees")
                # vertex-wise intersection implies edge-wise or endpoints
                # only; each pair of meeting paths is checked once, from
                # the earlier one (paths are enumerated in sorted order)
                p_vertices = frozenset(p.vertices)
                for q in ps.family:
                    if q.vertices <= p.vertices:
                        continue
                    shared = p_vertices.intersection(q.vertices)
                    if not (p.edges & q.edges):
                        endpoints = {p.vertices[0], p.vertices[-1]} & \
                            {q.vertices[0], q.vertices[-1]}
                        result.check(shared <= endpoints,
                                     lambda: f"{_describe(g)}: paths share "
                                             "interior vertices without "
                                             "sharing edges")
                    if len(shared) >= 2:
                        # the two path orders may disagree on the shared
                        # vertices, but never as exact reverses; that
                        # would splice into a path between two unsaturated
                        # vertices of the same side
                        in_p = [v for v in p.vertices if v in shared]
                        in_q = [v for v in q.vertices if v in shared]
                        result.check(in_p != in_q[::-1],
                                     lambda: f"{_describe(g)}: shared "
                                             "vertices in exactly reversed "
                                             "order")
    return result


def sweep_hall_consistency(max_vertices: int = 8) -> SweepResult:
    """Hall's condition on a side holds iff a maximum matching saturates it."""
    result = SweepResult("hall-consistency")
    for g in cached_corpus(max_vertices):
        mm = maximum_matching(g)
        for side, vertices, hall in zip(("left", "right"),
                                        (g.left, g.right),
                                        hall_condition(g)):
            saturated = all(mm.saturates(v) for v in vertices)
            result.check(hall == saturated,
                         lambda: f"{_describe(g)}: Hall mismatch on {side}")
    return result


def sweep_star_studded(max_vertices: int = 7) -> SweepResult:
    """Star-studded graphs reach every minimum cover from a maximal
    matching, and restriction reaches every base cover.

    Each minimum cover is reached when ``maximal_witness`` finds a
    maximal matching for it from the cover's own split.
    """
    result = SweepResult("star-studded")
    budget = OracleBudget(max_vertices=5 * max_vertices + 1,
                          max_subsets=2 ** 21)
    for h in cached_corpus(max_vertices):
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


def corpus_verify(max_vertices: int = 8) -> list[SweepResult]:
    """Run every sweep, the star-studded one on at most 7 base vertices;
    the corpus raises ``BudgetExceeded`` above ``MAX_CORPUS_VERTICES``
    before any sweep starts."""
    return [sweep(max_vertices) for sweep in ALL_SWEEPS] + [
        sweep_star_studded(min(max_vertices, 7))]
