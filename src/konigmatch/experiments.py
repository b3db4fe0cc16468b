"""Randomized trials: how often does a random maximal matching on a
random bipartite graph yield a minimum vertex cover?

A trial's maximal matching is the greedy one over a seeded random edge
order (``random_maximal_matching``).  The hit rate is reported, never
asserted; there is no theoretical value to compare against.  Trials are
exactly reproducible from the seed, and the minimum-cover size comes
from the maximum matching cardinality so runs scale to hundreds of
vertices.  That maximum matching is grown from the trial's maximal
matching, which has at least half as many edges, so the one search a
trial graph gets runs few augmentations.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import IO

from .errors import BudgetExceeded
from .graph import MAX_VERTICES, BipartiteGraph, _edge_list, build_graph
from .konig import konig_cover
from .matching import Matching, maximum_matching

CSV_COLUMNS = ["seed", "n_left", "n_right", "p", "trial_index",
               "matching_size", "cover_size", "min_cover_size", "is_minimum"]

# largest n_left * n_right a trial may draw edges over: ``random_bipartite``
# draws one number per potential edge and may keep them all
MAX_POTENTIAL_EDGES = 10 ** 7
# largest expected edges (n_left * n_right * p) times trials a run may
# ask for: the work budget of a whole run, checked before anything is
# drawn; one trial at the potential-edge cap and p = 1 is refused
MAX_EDGE_TRIALS = 5 * 10 ** 6


@dataclass(frozen=True, slots=True)
class TrialConfig:
    n_left: int
    n_right: int
    edge_probability: float
    trials: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must be in [0, 1]")
        if self.n_left <= 0 or self.n_right <= 0:
            raise ValueError("side sizes must be positive")
        if self.n_left * self.n_right > MAX_POTENTIAL_EDGES:
            raise ValueError(
                f"n_left * n_right must be at most {MAX_POTENTIAL_EDGES}")
        work = (self.n_left * self.n_right * self.edge_probability
                * self.trials)
        if work > MAX_EDGE_TRIALS:
            raise BudgetExceeded(
                f"expected edges times trials is {work:.4g}, over the "
                f"budget of {MAX_EDGE_TRIALS}")
        if self.n_left + self.n_right > MAX_VERTICES:
            raise BudgetExceeded(
                f"n_left + n_right is {self.n_left + self.n_right}, over "
                f"the budget of {MAX_VERTICES} vertices a graph")


@dataclass(slots=True)
class TrialReport:
    config: TrialConfig
    trials_run: int = 0
    minimum_hits: int = 0
    cover_excess_total: int = 0
    excess_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.minimum_hits / self.trials_run if self.trials_run else 0.0

    @property
    def mean_cover_excess(self) -> float:
        if not self.trials_run:
            return 0.0
        return self.cover_excess_total / self.trials_run


def random_bipartite(cfg: TrialConfig, rng: random.Random) -> BipartiteGraph:
    """Each potential (left, right) edge included independently with the
    configured probability."""
    p = cfg.edge_probability
    edges = [(i, j)
             for i in range(cfg.n_left)
             for j in range(cfg.n_right)
             if rng.random() < p]
    return build_graph(cfg.n_left, cfg.n_right, edges)


def random_maximal_matching(g: BipartiteGraph,
                            rng: random.Random) -> Matching:
    """Greedy maximal matching under a uniformly random edge permutation:
    one scan of the shuffled edges adds each edge whose endpoints are
    free."""
    order = _edge_list(g)  # ascending
    rng.shuffle(order)
    used: set[int] = set()
    chosen = []
    for u, v in order:
        if u not in used and v not in used:
            chosen.append((u, v))
            used.add(u)
            used.add(v)
    return Matching(g, chosen)


def run_trials(cfg: TrialConfig, csv_out: IO[str] | None = None) -> TrialReport:
    """Run the configured trials, optionally streaming one CSV row each."""
    rng = random.Random(cfg.rng_seed)
    report = TrialReport(cfg)
    writer = None
    if csv_out is not None:
        writer = csv.writer(csv_out)
        writer.writerow(CSV_COLUMNS)
    for index in range(cfg.trials):
        g = random_bipartite(cfg, rng)
        m = random_maximal_matching(g, rng)
        # the graph's one search, grown from m; konig_cover reads its size
        min_size = len(maximum_matching(g, m))
        cover = konig_cover(m)
        excess = len(cover.vertices) - min_size
        hit = cover.is_minimum
        report.trials_run += 1
        report.minimum_hits += int(hit)
        report.cover_excess_total += excess
        report.excess_histogram[excess] = \
            report.excess_histogram.get(excess, 0) + 1
        if writer is not None:
            writer.writerow([cfg.rng_seed, cfg.n_left, cfg.n_right,
                             cfg.edge_probability, index, len(m),
                             len(cover.vertices), min_size,
                             int(hit)])
    return report
