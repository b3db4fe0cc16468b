"""Randomized trials: how often does a random maximal matching on a
random bipartite graph yield a minimum vertex cover?

A trial's graph is drawn as neighbour masks (see ``graph``) and judged
by a vertex mask.  ``random_bipartite`` draws the graph straight into
its masks, the graph ``build_graph`` would make of the same draws as an
edge list.  A trial's maximal matching is the greedy one over a seeded random edge
order (``random_maximal_matching``), scanned against a table of free
flags indexed by vertex id.  The minimum-cover size is the maximum
matching cardinality, so runs scale to hundreds of vertices; that
maximum matching is grown from the trial's maximal matching, which has
at least half as many edges, so the one search a trial graph gets runs
few augmentations.  The verdict reads K(M)'s vertex mask: its popcount
is the cover size, and the trial hits when it covers every edge and
its size is ν.  The hit rate is reported, never asserted; there is no
theoretical value to compare against.  Trials are exactly reproducible
from the seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import IO

from .errors import BudgetExceeded
from .graph import MAX_VERTICES, BipartiteGraph, _covers, _edge_list
from .konig import _konig_mask
from .matching import Matching, maximum_matching

CSV_COLUMNS = ["seed", "n_left", "n_right", "p", "trial_index",
               "matching_size", "cover_size", "min_cover_size", "is_minimum"]

# largest n_left * n_right a trial may draw edges over: ``random_bipartite``
# draws one number per potential edge and may keep them all
MAX_POTENTIAL_EDGES = 10 ** 7
# largest draws (n_left * n_right a trial, whatever p is) times trials a
# run may ask for: the work budget of a whole run, checked before
# anything is drawn; one trial at the potential-edge cap is refused
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
        work = self.n_left * self.n_right * self.trials
        if work > MAX_EDGE_TRIALS:
            raise BudgetExceeded(
                f"potential edges times trials is {work:.4g}, over the "
                f"budget of {MAX_EDGE_TRIALS}")
        # random_bipartite hands its masks to the graph unchecked, so
        # this is the vertex budget's one guard on a trial graph
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
    configured probability, drawn straight into the neighbour masks.

    The draws run over the left indices and, within each, the right
    ones, one ``rng.random()`` each.  The graph is the one ``build_graph``
    makes of the drawn index pairs: left ids ``0 .. n_left-1``, right ids
    ``n_left .. n_left+n_right-1``, and the side roles swapped when the
    left side is the larger.  ``TrialConfig`` has checked the vertex
    budget, so the masks go to the graph unchecked."""
    nl, nr = cfg.n_left, cfg.n_right
    p = cfg.edge_probability
    draw = rng.random
    rows = []
    columns = [0] * nr
    for i in range(nl):
        bit = 1 << i
        row = 0
        for j in range(nr):
            if draw() < p:
                row |= 1 << nl + j
                columns[j] |= bit
        rows.append(row)
    adjacency = dict(enumerate(rows + columns))
    left_mask = (1 << nl) - 1
    if nl > nr:
        left_mask ^= (1 << nl + nr) - 1
    return BipartiteGraph._from_masks(adjacency, left_mask, None)


def random_maximal_matching(g: BipartiteGraph,
                            rng: random.Random) -> Matching:
    """Greedy maximal matching under a uniformly random edge permutation:
    one scan of the shuffled edges adds each edge whose endpoints are
    free, read from a table of flags indexed by vertex id.  The result
    is a validated ``Matching``."""
    order = _edge_list(g)  # ascending
    rng.shuffle(order)
    # a list index is cheaper than a set lookup, and than a vertex mask,
    # whose shifts allocate an int for each edge
    free = [True] * (max(g._adjacency, default=-1) + 1)
    chosen = []
    for u, v in order:
        if free[u] and free[v]:
            chosen.append((u, v))
            free[u] = free[v] = False
    return Matching(g, chosen)


def run_trials(cfg: TrialConfig, csv_out: IO[str] | None = None) -> TrialReport:
    """Run the configured trials, optionally streaming one CSV row each.

    A trial's verdict is read off K(M)'s vertex mask: the cover size is
    its popcount, and it is a hit when the mask covers every edge and
    its size is ν."""
    rng = random.Random(cfg.rng_seed)
    report = TrialReport(cfg)
    writer = None
    if csv_out is not None:
        writer = csv.writer(csv_out)
        writer.writerow(CSV_COLUMNS)
    for index in range(cfg.trials):
        g = random_bipartite(cfg, rng)
        m = random_maximal_matching(g, rng)
        # the graph's one search, grown from m
        min_size = len(maximum_matching(g, m))
        k = _konig_mask(m)
        size = k.bit_count()
        excess = size - min_size
        hit = _covers(g, k) and size == min_size
        report.trials_run += 1
        report.minimum_hits += int(hit)
        report.cover_excess_total += excess
        report.excess_histogram[excess] = \
            report.excess_histogram.get(excess, 0) + 1
        if writer is not None:
            writer.writerow([cfg.rng_seed, cfg.n_left, cfg.n_right,
                             cfg.edge_probability, index, len(m),
                             size, min_size, int(hit)])
    return report
