import csv
import io
import random

import pytest

from konigmatch import TrialConfig, konig_cover, run_trials
from konigmatch.experiments import (
    CSV_COLUMNS,
    MAX_POTENTIAL_EDGES,
    random_bipartite,
    random_maximal_matching,
)
from konigmatch.oracle import all_minimum_covers


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(4, 4, 0.5, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(4, 4, 1.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(0, 4, 0.5, trials=1)


def test_config_refuses_graphs_above_the_edge_cap():
    # building a config draws nothing, so the cap is probed at its edge
    TrialConfig(MAX_POTENTIAL_EDGES // 10, 10, 0.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(MAX_POTENTIAL_EDGES // 10 + 1, 10, 0.5, trials=1)
    with pytest.raises(ValueError):
        TrialConfig(100_000, 100_000, 0.5, trials=1)


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
