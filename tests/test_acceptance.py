"""End-to-end acceptance checks.

Each test is one verdict: the worked examples reproduce their known
values, every invariant sweep over the exhaustive small-graph corpus
reports zero violations, and the randomized trial harness runs inside
its time budget while agreeing with the brute-force oracle on tiny
instances.
"""

import csv
import random
import time

from konigmatch import (
    TrialConfig,
    is_vertex_cover,
    konig_cover,
    run_trials,
)
from konigmatch.experiments import (
    CSV_COLUMNS,
    random_bipartite,
    random_maximal_matching,
)
from konigmatch.io import load_graph
from konigmatch.oracle import all_minimum_covers
from konigmatch.verify import (
    sweep_classification,
    sweep_cycle_fibers,
    sweep_hall_consistency,
    sweep_konig_equality,
    sweep_one_endpoint_and_minimal,
    sweep_path_structure_properties,
    sweep_reverse_round_trip,
    sweep_star_studded,
    sweep_surjectivity,
)

from conftest import FIXTURES, labeled, matching_by_labels


def _assert_clean(result):
    assert result.cases > 0
    assert result.ok, (
        f"{result.name}: {len(result.violations)} violation(s); first: "
        + "; ".join(result.violations[:3]))


def test_path_graph_examples_reproduce_known_covers():
    started = time.monotonic()
    g = load_graph(str(FIXTURES / "p4.json"))
    expectations = [
        ([("1", "2"), ("3", "4")], ("1", "3")),
        ([("2", "3")], ("2", "4")),
        ([("3", "4")], ("2", "3")),
    ]
    for matched, cover_labels in expectations:
        cover = konig_cover(matching_by_labels(g, matched))
        assert cover.vertices == labeled(g, *cover_labels)
        assert cover.is_cover and cover.is_minimal and cover.is_minimum
    assert all_minimum_covers(g) == {
        labeled(g, "1", "3"), labeled(g, "2", "3"), labeled(g, "2", "4")}
    assert not is_vertex_cover(g, labeled(g, "1", "4"))
    assert time.monotonic() - started < 1.0


def test_fork_graph_matching_gives_minimal_but_not_minimum_cover():
    started = time.monotonic()
    g = load_graph(str(FIXTURES / "fork.json"))
    cover = konig_cover(matching_by_labels(g, [("b1", "c1")]))
    assert len(cover.vertices) == 4
    assert cover.is_cover
    assert cover.is_minimal
    assert not cover.is_minimum
    assert len(next(iter(all_minimum_covers(g)))) == 2
    assert time.monotonic() - started < 1.0


def test_cover_size_equals_matching_size_on_the_full_corpus():
    started = time.monotonic()
    _assert_clean(sweep_konig_equality(8))
    assert time.monotonic() - started < 600


def test_reverse_procedure_round_trips_on_the_full_corpus():
    _assert_clean(sweep_reverse_round_trip(8))


def test_every_minimum_cover_is_reached_on_the_full_corpus():
    _assert_clean(sweep_surjectivity(8))


def test_classification_agrees_with_the_direct_check_on_the_full_corpus():
    _assert_clean(sweep_classification(8))


def test_cycle_difference_matchings_map_to_one_cover_on_the_full_corpus():
    _assert_clean(sweep_cycle_fibers(8))


def test_matched_edge_split_and_minimality_on_the_full_corpus():
    _assert_clean(sweep_one_endpoint_and_minimal(8))


def test_structure_property_suites_hold_on_the_full_corpus():
    _assert_clean(sweep_path_structure_properties(8))


def test_hall_condition_matches_saturation_on_the_full_corpus():
    _assert_clean(sweep_hall_consistency(8))


def test_star_studded_graphs_reach_every_cover():
    started = time.monotonic()
    _assert_clean(sweep_star_studded(7))
    assert time.monotonic() - started < 900


def test_randomized_trials_run_fast_and_agree_with_the_oracle(tmp_path):
    started = time.monotonic()
    rates = {}
    for p in (0.1, 0.3, 0.5):
        cfg = TrialConfig(n_left=20, n_right=20, edge_probability=p,
                          trials=10 ** 4, rng_seed=0)
        out = tmp_path / f"trials_{p}.csv"
        with out.open("w", newline="") as fh:
            report = run_trials(cfg, fh)
        rates[p] = report.hit_rate
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 10 ** 4 + 1
        assert sum(int(r[8]) for r in rows[1:]) == report.minimum_hits
        assert all(int(r[6]) >= int(r[7]) for r in rows[1:])
    elapsed = time.monotonic() - started
    assert elapsed < 120
    # hit rates are reported, not asserted
    print(f"\nhit rates (20x20, 10^4 trials, {elapsed:.1f}s): "
          + ", ".join(f"p={p}: {rate:.4f}" for p, rate in rates.items()))
    # tiny instances: every verdict must match the brute-force oracle
    cfg = TrialConfig(n_left=4, n_right=4, edge_probability=0.4,
                      trials=80, rng_seed=17)
    report = run_trials(cfg)
    rng = random.Random(cfg.rng_seed)
    for _ in range(cfg.trials):
        g = random_bipartite(cfg, rng)
        m = random_maximal_matching(g, rng)
        cover = konig_cover(m)
        oracle = len(next(iter(all_minimum_covers(g))))
        hit = cover.is_cover and len(cover.vertices) == oracle
        report.minimum_hits -= int(hit)
    assert report.minimum_hits == 0
