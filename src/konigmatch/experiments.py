"""Randomized trials: how often does a random maximal matching on a
random bipartite graph yield a minimum vertex cover?

The hit rate is reported, never asserted; there is no theoretical value
to compare against.  Trials are exactly reproducible from the seed, and
the minimum-cover size comes from the maximum matching cardinality so
runs scale to hundreds of vertices.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import IO

from .graph import BipartiteGraph, build_graph
from .konig import konig_cover
from .matching import Matching, greedy_maximal_matching, matching_number

CSV_COLUMNS = ["seed", "n_left", "n_right", "p", "trial_index",
               "matching_size", "cover_size", "min_cover_size", "is_minimum"]

# largest n_left * n_right a trial may draw edges over: ``random_bipartite``
# draws one number per potential edge and may keep them all
MAX_POTENTIAL_EDGES = 10 ** 7


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
    """Greedy maximal matching under a uniformly random edge permutation."""
    order = sorted(g.edges)
    rng.shuffle(order)
    return greedy_maximal_matching(g, order)


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
        cover = konig_cover(m)
        min_size = matching_number(g)
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
