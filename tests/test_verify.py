"""The corpus walk behind the sweeps: one walk reports what the single
sweeps report, faults included; it enumerates each graph's oracle data
at most once and keeps none of it past the graph; a single sweep
fetches only what its own check reads; and a walk split across forked
workers reports what one walk reports and leaves no process behind."""

import os
import re
import weakref
from collections import Counter

import pytest

from konigmatch import (Matching, konig, konig_vertices, matching, maximize,
                        maximum_matching, paths, reverse_konig,
                        split_by_cover, verify)
from konigmatch.cli import run
from konigmatch.corpus import cached_corpus, connected_bipartite_graphs
from konigmatch.graph import _mask
from konigmatch.konig import _konig_mask
from konigmatch.oracle import all_maximal_matchings, all_minimum_covers
from konigmatch.stars import star_stud

import conftest
from conftest import rebuilt, reference_one_endpoint_and_minimal

ENUMERATIONS = ("all_matchings", "all_maximal_matchings",
                "all_minimum_covers")


def _count_enumerations(monkeypatch):
    """Patch the walk's three oracle enumerations to count their calls per
    graph; calls with a budget, which only the star-studded sweep makes,
    are counted apart under ``"budgeted"``."""
    calls = {name: Counter() for name in ENUMERATIONS + ("budgeted",)}
    for name in ENUMERATIONS:
        def counting(g, b=None, _name=name, _real=getattr(verify, name)):
            calls[_name if b is None else "budgeted"][id(g)] += 1
            return _real(g, b)
        monkeypatch.setattr(verify, name, counting)
    return calls


def _pinned(max_vertices):
    """The block CI pins for ``corpus-verify --max-vertices`` at this
    size, ``tests/fixtures/corpus-verify-<size>.txt``, as (sweep, cases,
    violations) triples; every line must read ``[ok]``."""
    text = (conftest.FIXTURES / f"corpus-verify-{max_vertices}.txt"
            ).read_text(encoding="utf-8")
    return [(name, int(cases), int(violations))
            for name, cases, violations in re.findall(
                r"^(\S+): (\d+) cases, (\d+) violations \[ok\]$", text,
                re.M)]


def _stale_split(monkeypatch):
    # test_reverse's fault: every cover of a graph gets its first cover's
    # split, so every visit order of a later cover fails
    first = {}

    def stale_split(g, c):
        if g not in first:
            first[g] = split_by_cover(g, c)
        return first[g]

    monkeypatch.setattr(verify, "split_by_cover", stale_split)


def _dropped_vertex(monkeypatch):
    # K(M) loses its smallest vertex on one graph of the corpus
    target = cached_corpus(6)[-1]

    def dropping(m):
        k = _konig_mask(m)
        # k & (k - 1) clears the lowest bit: the smallest vertex
        return k & (k - 1) if m.graph is target else k

    monkeypatch.setattr(verify, "_konig_mask", dropping)


@pytest.mark.parametrize("fault", [None, _stale_split, _dropped_vertex],
                         ids=["clean", "stale-split", "dropped-vertex"])
def test_one_walk_reports_what_the_single_sweeps_report(monkeypatch, fault):
    if fault is not None:
        fault(monkeypatch)
    fused = verify.corpus_verify(6)
    single = [sweep(6) for sweep in verify.ALL_SWEEPS]
    # name, cases and the full violation list of each of the eight
    assert fused[:8] == single
    assert [r.name for r in fused[8:]] == ["star-studded"]
    failing = [r.name for r in single if not r.ok]
    if fault is None:
        assert failing == []
    elif fault is _stale_split:
        assert failing == ["reverse-round-trip"]
    else:
        assert {"reverse-round-trip", "surjectivity",
                "one-endpoint-and-minimal"} <= set(failing)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


forking = pytest.mark.skipif(not hasattr(os, "fork"),
                             reason="the walk shards only where it can fork")


@forking
@pytest.mark.parametrize("fault, n", [(None, 8), (_stale_split, 6),
                                      (_dropped_vertex, 6)],
                         ids=["clean", "stale-split", "dropped-vertex"])
def test_two_shards_report_what_one_walk_reports(monkeypatch, fault, n):
    if fault is not None:
        fault(monkeypatch)
    serial = verify.corpus_verify(n, jobs=1)
    # names, cases and every violation, in the same order
    assert verify.corpus_verify(n, jobs=2) == serial
    assert all(r.ok for r in serial) == (fault is None)
    _assert_no_child_left()


@forking
def test_two_shards_print_the_pinned_counts_at_nine_vertices():
    # the block CI pins for `corpus-verify --max-vertices 9 --jobs 1`
    assert [(r.name, r.cases, len(r.violations))
            for r in verify.corpus_verify(9, jobs=2)] == _pinned(9)
    _assert_no_child_left()


class _WorkerFault(Exception):
    """Raised by a check on one graph."""


@forking
@pytest.mark.parametrize("index", [0, 1], ids=["caller", "worker"])
def test_a_failing_check_raises_in_the_caller_and_leaves_no_child(
        monkeypatch, index):
    # at two jobs, graph 0 is walked by the caller and graph 1 by the
    # forked worker
    target = cached_corpus(6)[index]
    real = verify.hall_condition

    def failing(g, b=None):
        if g is target:
            raise _WorkerFault(f"graph {index}")
        return real(g, b)

    monkeypatch.setattr(verify, "hall_condition", failing)
    with pytest.raises(_WorkerFault, match=f"graph {index}"):
        verify.corpus_verify(6, jobs=2)
    _assert_no_child_left()


@forking
def test_a_worker_ending_without_a_result_raises_in_the_caller(monkeypatch):
    real = verify._walk_shard

    def exiting(corpus, jobs, checks, k):
        if k >= 1:  # the forked worker ends before it sends anything
            os._exit(0)
        return real(corpus, jobs, checks, k)

    monkeypatch.setattr(verify, "_walk_shard", exiting)
    with pytest.raises(RuntimeError,
                       match="a corpus worker ended without a result"):
        verify.corpus_verify(6, jobs=2)
    _assert_no_child_left()


def _no_fork(monkeypatch):
    def refusing(walk_shard, k):
        raise AssertionError(f"shard {k} was forked")

    monkeypatch.setattr(verify, "_fork_shard", refusing)


def test_zero_jobs_are_refused_before_any_fork(monkeypatch):
    _no_fork(monkeypatch)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify.corpus_verify(6, jobs=0)


@pytest.mark.parametrize("n", [0, 1])
def test_an_empty_corpus_walks_to_empty_results(monkeypatch, n):
    # below two vertices the corpus holds no graph; the walk keeps one
    # shard and forks nothing, whatever the CPU count
    _no_fork(monkeypatch)
    results = verify.corpus_verify(n)
    results += [sweep(n) for sweep in verify.ALL_SWEEPS]
    results.append(verify.sweep_star_studded(n))
    assert len(results) == 18
    assert all((r.cases, r.violations) == (0, []) for r in results)


def test_the_path_pair_checks_report_faulty_paths(monkeypatch, fork):
    # with b1-c1 matched, every augmenting path runs a1 or a2, b1, c1, d;
    # two walks added to the enumeration meet them wrongly: d2-c1-d3
    # shares c1 with the paths into d1 but none of their edges, and
    # d2-c1-b1-a2 runs through b1 and c1 in the reverse order
    m = Matching(fork, [(fork.vertex_by_label("b1"),
                         fork.vertex_by_label("c1"))])
    record = verify.GraphRecord(fork, 0)
    record.maximal_matchings = [m]
    clean = verify.SweepResult("path-structure-properties")
    verify._path_structure_properties(record, clean)
    assert clean.cases > 0 and clean.ok
    real = paths.enumerate_augmenting_paths
    walks = [tuple(fork.vertex_by_label(lab) for lab in walk)
             for walk in (("d2", "c1", "d3"), ("d2", "c1", "b1", "a2"))]
    monkeypatch.setattr(paths, "enumerate_augmenting_paths",
                        lambda m: real(m) + walks)
    faulty = verify.SweepResult("path-structure-properties")
    verify._path_structure_properties(record, faulty)
    assert {v.split(": ", 1)[1] for v in faulty.violations} == {
        "paths share interior vertices without sharing edges",
        "shared vertices in exactly reversed order",
    }


@forking
def test_a_graph_draws_the_same_reverse_orders_in_any_shard(monkeypatch,
                                                            tmp_path):
    # every call appends its graph, cover and visit order to one file,
    # from whichever process walks the graph
    log = tmp_path / "orders"
    index = {id(g): i for i, g in enumerate(cached_corpus(6))}

    def logging_reverse(split, visit_order=None):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{index[id(split.graph)]};{sorted(split.cover)};"
                      f"{visit_order}\n")
        return reverse_konig(split, visit_order)

    monkeypatch.setattr(verify, "reverse_konig", logging_reverse)
    orders = {}
    for jobs in (1, 2):
        log.write_text("")
        assert verify.sweep_reverse_round_trip(6, seed=7, jobs=jobs).ok
        per_graph = {}
        for line in log.read_text().splitlines():
            per_graph.setdefault(line.split(";")[0], []).append(line)
        orders[jobs] = per_graph
    assert orders[1] == orders[2]
    assert sum(map(len, orders[1].values())) == 6 * 51


def test_corpus_verify_pins_every_case_count_at_eight_vertices():
    # the nine lines CI pins for `corpus-verify --max-vertices 8`
    assert [(r.name, r.cases, len(r.violations))
            for r in verify.corpus_verify(8)] == _pinned(8)


def test_the_walk_enumerates_each_graph_once(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    searches = Counter()
    real_maximize = matching.maximize

    def counting_maximize(m):
        searches[id(m.graph)] += 1
        return real_maximize(m)

    # maximum_matching's own search, on graphs no earlier test searched
    monkeypatch.setattr(matching, "maximize", counting_maximize)
    graphs = tuple(connected_bipartite_graphs(7))
    monkeypatch.setattr(verify, "cached_corpus", lambda n: graphs)
    assert all(r.ok for r in verify.corpus_verify(7, jobs=1))
    once = Counter(map(id, graphs))
    for name in ENUMERATIONS:
        assert calls[name] == once, name
    # the konig-equality, classification and Hall checks and every split
    # share one search per graph
    assert [searches[id(g)] for g in graphs] == [1] * len(graphs)
    # the star-studded sweep's own oracle calls: one on each studded
    # graph and one on its base graph
    assert calls["budgeted"].total() == 2 * len(graphs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_graph_is_searched_once_for_any_jobs(monkeypatch, jobs):
    # the corpus searches every graph as it builds them, and the walk
    # searches none: the workers inherit each graph's maximum matching
    searches = Counter()
    walked: set[int] = set()
    real_maximize = matching.maximize

    def counting_maximize(m):
        searches[id(m.graph)] += 1
        # a worker's search raises there, and the caller re-raises it
        assert id(m.graph) not in walked, "a walked graph was searched"
        return real_maximize(m)

    monkeypatch.setattr(matching, "maximize", counting_maximize)
    graphs = cached_corpus.__wrapped__(7)
    assert [searches[id(g)] for g in graphs] == [1] * len(graphs)
    monkeypatch.setattr(verify, "cached_corpus", lambda n: graphs)
    walked.update(map(id, graphs))
    # the star-studded sweep searches studded graphs it builds anew
    searches.clear()
    assert all(r.ok for r in verify.corpus_verify(7, jobs=jobs))
    assert [searches[id(g)] for g in graphs] == [0] * len(graphs)


def test_corpus_graphs_keep_the_empty_start_matching_whatever_ran_first(
        monkeypatch):
    # a fresh corpus walked by classification alone, which would grow M*
    # from a maximal matching on a graph that kept none yet
    graphs = cached_corpus.__wrapped__(8)
    monkeypatch.setattr(verify, "cached_corpus", lambda n: graphs)
    assert verify.sweep_classification(8, jobs=1).ok
    moved_graphs = sum(
        maximum_matching(g).edges != maximize(Matching(rebuilt(g), ())).edges
        for g in graphs)
    results = moved = 0
    for g in graphs:
        h = rebuilt(g)
        for c in all_minimum_covers(g):
            results += 1
            moved += (reverse_konig(split_by_cover(g, c)).edges
                      != reverse_konig(split_by_cover(h, c)).edges)
    assert (len(graphs), moved_graphs, results, moved) == (253, 0, 538, 0)


def test_a_failing_corpus_verify_exits_1_and_prints_ten_violations_a_sweep(
        monkeypatch, capsys):
    _dropped_vertex(monkeypatch)
    assert run(["corpus-verify", "--max-vertices", "6", "--jobs", "1"]) == 1
    out, err = capsys.readouterr()
    assert [line for line in out.splitlines() if line.endswith("[FAIL]")] \
        == ["reverse-round-trip: 306 cases, 12 violations [FAIL]",
            "surjectivity: 27 cases, 1 violations [FAIL]",
            "one-endpoint-and-minimal: 639 cases, 27 violations [FAIL]"]
    # 10 + 1 + 10: each sweep prints its first ten
    assert len(err.splitlines()) == 21
    assert all(line.startswith("  G(") for line in err.splitlines())


def test_the_star_sweep_reports_a_base_graph_whose_witnesses_fail(
        monkeypatch):
    # no maximal witness on the studded graph of one base graph: neither
    # its covers nor, after restriction, the base graph's are reached
    h = cached_corpus(5)[3]
    studded = star_stud(h).full
    real = verify.maximal_witness

    def failing(g, cover, budget=None):
        return None if g == studded else real(g, cover, budget)

    monkeypatch.setattr(verify, "maximal_witness", failing)
    # the star sweep walks in this process, whatever the CPU count
    real_fork = verify._fork_shard
    _no_fork(monkeypatch)
    result = verify.sweep_star_studded(5)
    monkeypatch.setattr(verify, "_fork_shard", real_fork)
    base_covers = sorted(map(sorted, all_minimum_covers(h)))
    assert (result.name, result.cases) == ("star-studded", 20)
    assert result.violations == [
        f"St({verify._describe(h)}) is not enumeratively reachable",
        f"St({verify._describe(h)}): base covers {base_covers} not reached "
        "after restriction"]
    # the walk of every check reports the same star line for any jobs
    for jobs in (1, 2):
        assert verify.corpus_verify(5, jobs=jobs)[-1] == result


class _TrackedList(list):
    """A list that can be weakly referenced."""


class _TrackedSet(set):
    """A set that can be weakly referenced."""


class _MaskRef:
    """Stands in for a weak reference to a K(M) mask, which an int cannot
    have: it returns itself until the mask is freed, then None."""

    def __init__(self):
        self.alive = True

    def __call__(self):
        return self if self.alive else None


class _TrackedMask(int):
    """A K(M) mask that clears its ``_MaskRef`` when it is freed."""

    def __del__(self):
        self.ref.alive = False


def test_the_walk_keeps_nothing_across_graphs(monkeypatch):
    held = []  # (graph, weak reference) for each tracked value
    kinds = Counter()

    def track(g, value):
        held.append((g, weakref.ref(value)))
        kinds[type(value).__name__] += 1
        return value

    def alive(but=None):
        return [h for h, ref in held if h is not but and ref() is not None]

    for name, kind in zip(ENUMERATIONS,
                          (_TrackedList, _TrackedList, _TrackedSet)):
        def enumerating(g, b=None, _real=getattr(verify, name), _kind=kind):
            if b is not None:  # the star-studded sweep's own graphs
                return _real(g, b)
            # no earlier graph's data survives into this graph's walk
            assert alive(but=g) == []
            return track(g, _kind(_real(g)))
        monkeypatch.setattr(verify, name, enumerating)
    def tracked_mask(m):
        k = _TrackedMask(_konig_mask(m))
        k.ref = _MaskRef()
        held.append((m.graph, k.ref))
        kinds["_TrackedMask"] += 1
        return k

    monkeypatch.setattr(verify, "_konig_mask", tracked_mask)
    assert all(r.ok for r in verify.corpus_verify(7, jobs=1))
    assert alive() == []
    graphs = len(cached_corpus(7))
    assert kinds["_TrackedList"] == 2 * graphs
    assert kinds["_TrackedSet"] == graphs
    assert kinds["_TrackedMask"] > graphs


SINGLE_SWEEPS = [
    (verify.sweep_konig_equality, {"all_minimum_covers"}),
    (verify.sweep_reverse_round_trip, {"all_minimum_covers"}),
    (verify.sweep_surjectivity, {"all_minimum_covers", "all_matchings"}),
    (verify.sweep_cycle_fibers, {"all_matchings"}),
    (verify.sweep_one_endpoint_and_minimal, {"all_matchings"}),
    (verify.sweep_classification, {"all_maximal_matchings"}),
    (verify.sweep_path_structure_properties, {"all_maximal_matchings"}),
    (verify.sweep_hall_consistency, set()),
]


@pytest.mark.parametrize("sweep, fetched", SINGLE_SWEEPS,
                         ids=[sweep.__name__ for sweep, _ in SINGLE_SWEEPS])
def test_a_single_sweep_fetches_only_what_its_check_reads(monkeypatch, sweep,
                                                          fetched):
    calls = _count_enumerations(monkeypatch)
    assert sweep(6, jobs=1).ok
    once = Counter(map(id, cached_corpus(6)))
    for name in ENUMERATIONS:
        assert calls[name] == (once if name in fetched else Counter()), name


def test_the_minimality_verdict_reads_the_records_konig_vertices(monkeypatch):
    # K(M) gains every vertex M leaves free, so matched edges stay split.
    # K(M) misses some free vertex of an imperfect matching (a free
    # U-vertex, or any free vertex once U is saturated), and a cover holds
    # every neighbour of a vertex it misses: exactly the imperfect maximal
    # matchings fail, and only on minimality
    monkeypatch.setattr(verify, "_konig_mask", lambda m: _konig_mask(m)
                        | _mask(m.unsaturated(m.graph.vertices)))
    result = verify.sweep_one_endpoint_and_minimal(6)
    maximal = [m for g in cached_corpus(6)
               for m in all_maximal_matchings(g)]
    imperfect = [m for m in maximal if len(m) * 2 < len(m.graph.vertices)]
    assert result.cases == 639
    assert len(result.violations) == len(imperfect) > 0
    assert all(v.endswith("maximal matching gave non-minimal result")
               for v in result.violations)


@pytest.mark.parametrize("fault", [None, "dropped-vertex"],
                         ids=["clean", "dropped-vertex"])
def test_the_one_endpoint_check_reports_what_the_reference_reports(
        monkeypatch, fault):
    if fault is not None:
        # K(M) loses its smallest vertex on the last graph of the corpus,
        # in the check and in the reference alike
        target = cached_corpus(8)[-1]

        def dropping(m):
            k = konig_vertices(m)
            return k - {min(k)} if m.graph is target else k

        def dropping_mask(m):
            k = _konig_mask(m)
            return k & (k - 1) if m.graph is target else k

        monkeypatch.setattr(verify, "_konig_mask", dropping_mask)
        monkeypatch.setattr(conftest, "konig_vertices", dropping)
    reference = verify.SweepResult("one-endpoint-and-minimal")
    for i, g in enumerate(cached_corpus(8)):
        reference_one_endpoint_and_minimal(verify.GraphRecord(g, i),
                                           reference)
    result = verify.sweep_one_endpoint_and_minimal(8)
    # the same cases and every violation, in the same order
    assert result == reference
    assert result.cases == 27826
    # 136 matched edges left unsplit and 24 non-minimal results
    assert len(result.violations) == {None: 0, "dropped-vertex": 160}[fault]


# Z walks per sweep at 8 vertices.  Classification: one per maximal
# matching (3,166), and one for the smaller cover of each of the 197
# non-minimum verdicts.  Cycle fibers: one per matching that shares its
# saturated set with another; the other 6,550 of the 11,618 matchings are
# compared with none.  Reverse round trip: one per round trip.
# Surjectivity and one-endpoint: one per matching.
CLOSURES = [
    (verify.sweep_classification, 3166 + 197),
    (verify.sweep_cycle_fibers, 5068),
    (verify.sweep_reverse_round_trip, 3228),
    (verify.sweep_surjectivity, 11618),
    (verify.sweep_one_endpoint_and_minimal, 11618),
]


@pytest.mark.parametrize("sweep, closures", CLOSURES,
                         ids=[sweep.__name__ for sweep, _ in CLOSURES])
def test_a_sweep_walks_each_matchings_z_at_most_once(monkeypatch, sweep,
                                                     closures):
    calls = []
    real = konig._alternating_closure

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(konig, "_alternating_closure", counting)
    assert sweep(8, jobs=1).ok
    assert len(calls) == closures
