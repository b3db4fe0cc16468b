import csv
import hashlib
import io
import random

import pytest

from konigmatch import (TrialConfig, TrialReport, experiments, konig_cover,
                        run_trials)
from konigmatch.errors import BudgetExceeded, Limit
from konigmatch.experiments import (
    CSV_COLUMNS,
    random_bipartite,
    random_maximal_matching,
)
from konigmatch.oracle import all_minimum_covers

from conftest import (count_searches, reference_greedy_maximal,
                      reference_random_bipartite)


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(4, 4, 0.5, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(4, 4, 1.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(0, 4, 0.5, trials=1)


def test_config_refuses_graphs_above_the_edge_cap():
    # building a config draws nothing, so the cap is probed at its edge,
    # with sides inside the vertex budget: a single trial at the cap is
    # over the work budget (exit 1), and one above it is bad input (exit 2)
    cap = Limit.POTENTIAL_EDGES.value
    with pytest.raises(BudgetExceeded):
        TrialConfig(cap // 5000, 5000, 0.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(cap // 5000 + 1, 5000, 0.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(100_000, 100_000, 0.5, trials=1)


def test_config_refuses_runs_above_the_work_budget(monkeypatch):
    # the budget is checked when the config is built, so no graph is
    # ever drawn for a refused run
    monkeypatch.setattr("konigmatch.experiments.random_bipartite",
                        lambda cfg, rng: pytest.fail("a graph was drawn"))
    # 1000 * 1000 draws per trial: five trials fit exactly
    budget = Limit.EDGE_DRAWS.value
    TrialConfig(1000, 1000, 1.0, trials=5)
    with pytest.raises(BudgetExceeded, match=f"{budget:,}"):
        TrialConfig(1000, 1000, 1.0, trials=6)
    # a trial draws a number per potential edge whatever p is, so p = 0
    # costs as much as any other p
    with pytest.raises(BudgetExceeded, match=f"{budget:,}"):
        TrialConfig(20, 20, 0.0, trials=10 ** 12)
    # one trial at the potential-edge cap with every edge drawn
    with pytest.raises(BudgetExceeded):
        TrialConfig(Limit.POTENTIAL_EDGES.value // 10, 10, 1.0, trials=1)
    # the pinned CLI run, 10^4 trials at 20 * 20 * 0.3, fits
    TrialConfig(20, 20, 0.3, trials=10_000)
    with pytest.raises(BudgetExceeded):
        TrialConfig(20, 20, 0.3, trials=10 ** 9)
    assert budget == 5 * 10 ** 6


def test_config_refuses_graphs_above_the_vertex_budget(monkeypatch):
    monkeypatch.setattr("konigmatch.experiments.random_bipartite",
                        lambda cfg, rng: pytest.fail("a graph was drawn"))
    top = Limit.VERTICES.value
    TrialConfig(1, top - 1, 0.5, trials=1)
    with pytest.raises(BudgetExceeded, match=f"{top:,}"):
        TrialConfig(1, top, 0.5, trials=1)


def test_trials_are_reproducible():
    cfg = TrialConfig(5, 5, 0.4, trials=50, rng_seed=11)
    a = run_trials(cfg)
    b = run_trials(cfg)
    assert a.minimum_hits == b.minimum_hits
    assert a.excess_histogram == b.excess_histogram
    other = run_trials(TrialConfig(5, 5, 0.4, trials=50, rng_seed=12))
    assert (a.minimum_hits, a.excess_histogram) != \
        (other.minimum_hits, other.excess_histogram)


def test_report_accounting():
    cfg = TrialConfig(4, 4, 0.3, trials=40, rng_seed=3)
    report = run_trials(cfg)
    assert report.trials_run == 40
    assert sum(report.excess_histogram.values()) == 40
    assert report.minimum_hits == report.excess_histogram.get(0, 0)
    assert report.cover_excess_total == \
        sum(k * n for k, n in report.excess_histogram.items())
    assert 0.0 <= report.hit_rate <= 1.0


def test_a_report_of_no_trials_reads_zero_rates():
    report = TrialReport(TrialConfig(4, 4, 0.3, trials=40))
    assert report.hit_rate == report.mean_cover_excess == 0.0


def test_empty_graphs_always_hit():
    report = run_trials(TrialConfig(3, 3, 0.0, trials=10))
    assert report.hit_rate == 1.0
    assert report.mean_cover_excess == 0.0


def test_csv_stream_matches_the_report():
    cfg = TrialConfig(4, 5, 0.5, trials=30, rng_seed=9)
    buf = io.StringIO()
    report = run_trials(cfg, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_COLUMNS
    body = rows[1:]
    assert len(body) == 30
    assert [int(r[4]) for r in body] == list(range(30))
    assert sum(int(r[8]) for r in body) == report.minimum_hits
    for r in body:
        assert int(r[6]) - int(r[7]) >= 0  # cover never beats the minimum
        assert (int(r[8]) == 1) == (int(r[6]) == int(r[7]))


def test_hits_agree_with_the_brute_force_oracle():
    # replay the exact rng stream and check every verdict independently
    cfg = TrialConfig(4, 4, 0.5, trials=60, rng_seed=21)
    report = run_trials(cfg)
    rng = random.Random(cfg.rng_seed)
    hits = 0
    for _ in range(cfg.trials):
        g = random_bipartite(cfg, rng)
        m = random_maximal_matching(g, rng)
        cover = konig_cover(m)
        oracle_size = len(next(iter(all_minimum_covers(g))))
        hits += int(cover.is_cover and len(cover.vertices) == oracle_size)
    assert hits == report.minimum_hits


def test_random_bipartite_is_the_reference_edge_list_build():
    # the masks are drawn directly; the reference draws the same numbers
    # into an edge list and builds the graph from it
    swapped = 0
    for seed in range(200):
        setup = random.Random(seed)
        nl, nr = setup.randint(1, 20), setup.randint(1, 20)
        p = (0.0, 1.0, setup.random())[seed % 3]
        cfg = TrialConfig(nl, nr, p, trials=1)
        # a stream apart from setup's, so no draw repeats p
        draws, reference = (random.Random(1000 + seed),
                            random.Random(1000 + seed))
        g = random_bipartite(cfg, draws)
        want = reference_random_bipartite(cfg, reference)
        assert g._adjacency == want._adjacency
        assert (g.left_mask, g.u_mask) == (want.left_mask, want.u_mask)
        assert g._labels is None
        assert draws.getstate() == reference.getstate()
        swapped += nl > nr
    assert 50 < swapped < 150  # either side is the larger often


def test_random_maximal_matching_is_the_reference_greedy_scan():
    for seed in range(200):
        rng = random.Random(seed)
        cfg = TrialConfig(rng.randint(1, 20), rng.randint(1, 20),
                          rng.random(), trials=1)
        g = random_bipartite(cfg, rng)
        draws, reference = random.Random(seed), random.Random(seed)
        m = random_maximal_matching(g, draws)
        order = sorted(g.edges)
        reference.shuffle(order)
        assert m.edges == reference_greedy_maximal(g, order).edges
        # the same draws, so seeded trials replay row for row
        assert draws.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", [1, 2])
def test_each_trial_graph_is_searched_once_from_its_maximal_matching(
        monkeypatch, seed):
    starts = count_searches(monkeypatch, experiments)
    cfg = TrialConfig(20, 20, 0.3, 25, seed)
    run_trials(cfg)
    # replay the rng stream: each search starts from that trial's matching
    rng = random.Random(seed)
    expected = []
    for _ in range(cfg.trials):
        g = random_bipartite(cfg, rng)
        expected.append(random_maximal_matching(g, rng))
    assert len(starts) == 25
    assert starts == expected


def test_trial_csvs_are_pinned():
    # any change in a trial's graph, matching, cover or ν changes the digest
    buf = io.StringIO()
    for args in [(20, 20, 0.1, 200, 1), (20, 20, 0.3, 200, 2),
                 (20, 20, 0.5, 200, 3), (7, 13, 0.4, 300, 4),
                 (60, 40, 0.05, 50, 5), (1, 1, 1.0, 5, 6)]:
        run_trials(TrialConfig(*args), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "d1a92694476a8d261c5b29d2b5258df92735aa08deb5792dc657e4c46fbcbf1d"
