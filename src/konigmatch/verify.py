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
from .matching import (
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
    classify_matching,
    enumerate_augmenting_paths,
    hat_vertices,
    path_structure,
)
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
        cover = konig_cover(g, mm)
        result.check(cover.is_minimum,
                     lambda: f"{_describe(g)}: maximum matching gave "
                             f"non-minimum cover {sorted(cover.vertices)}")
    return result


def sweep_reverse_round_trip(max_vertices: int = 8,
                             seed: int = 0) -> SweepResult:
    """Reverse procedure recovers every oracle minimum cover, for the
    default visit order and ``SAMPLED_ORDERS`` sampled permutations.

    Each cover is split once, and every visit order reuses that split.
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
            try:
                target = split_by_cover(g, cover)
            except Exception:  # reverse_konig raises it again per order
                target = cover
            for order in orders:
                try:
                    res = reverse_konig(g, target, order)
                except Exception as exc:  # report, keep sweeping
                    result.check(False,
                                 lambda: f"{_describe(g)} cover "
                                         f"{sorted(cover)} order {order}: "
                                         f"{exc!r}")
                    continue
                produced = konig_vertices(g, res.combined)
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
        reached = reached_minimum_covers(g, all_matchings(g))
        result.check(reached == wanted,
                     lambda: f"{_describe(g)}: reached "
                             f"{sorted(map(sorted, reached))} != oracle "
                             f"{sorted(map(sorted, wanted))}")
    return result


def sweep_cycle_fibers(max_vertices: int = 8) -> SweepResult:
    """Matchings whose symmetric difference is a disjoint union of cycles
    map to the same cover.

    Such a difference exists only between matchings that saturate the same
    vertices, so pairs are formed within each saturated set.
    """
    result = SweepResult("cycle-fibers")
    for g in cached_corpus(max_vertices):
        by_saturated: dict[frozenset[int], list] = {}
        for m in all_matchings(g):
            saturated = frozenset(v for edge in m.edges for v in edge)
            by_saturated.setdefault(saturated, []).append(
                (m, konig_vertices(g, m)))
        for group in by_saturated.values():
            for i, (m1, cover1) in enumerate(group):
                for m2, cover2 in group[i + 1:]:
                    diff = symmetric_difference(m1, m2)
                    if not is_disjoint_cycle_union(g, diff):
                        continue
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
            cover = konig_cover(g, m)
            for u, v in m.edges:
                result.check((u in cover.vertices) != (v in cover.vertices),
                             lambda: f"{_describe(g)} {sorted(m.edges)}: "
                                     f"edge ({u},{v}) not split by cover")
            if is_maximal(g, m):
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
            verdict = classify_matching(g, m)
            direct = konig_cover(g, m).is_minimum
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
            paths = enumerate_augmenting_paths(g, m)
            vertex_sets = [frozenset(q.vertices) for q in paths]
            k_before = konig_vertices(g, m)
            for idx, p in enumerate(paths):
                def where() -> str:
                    return (f"{_describe(g)} {sorted(m.edges)} "
                            f"p={list(p.vertices)}")

                ps = path_structure(g, m, p, paths)
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
                # vertex-wise intersection implies edge-wise or endpoints only
                for q, q_vertices in zip(paths[idx + 1:],
                                         vertex_sets[idx + 1:]):
                    shared = vertex_sets[idx] & q_vertices
                    if shared and not (p.edges & q.edges):
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
        for side, vertices in (("left", g.left), ("right", g.right)):
            saturated = all(mm.saturates(v) for v in vertices)
            result.check(hall_condition(g, side) == saturated,
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


def corpus_verify(max_vertices: int = 8,
                  include_stars: bool = True) -> list[SweepResult]:
    """Run every sweep; the corpus raises ``BudgetExceeded`` above
    ``MAX_CORPUS_VERTICES`` before any sweep starts."""
    results = [sweep(max_vertices) for sweep in ALL_SWEEPS]
    if include_stars:
        results.append(sweep_star_studded(min(max_vertices, 7)))
    return results
