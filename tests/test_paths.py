import dataclasses

import pytest

from konigmatch import (
    BipartiteGraph,
    Matching,
    build_graph,
    classify_matching,
    enumerate_augmenting_paths,
    hat_vertices,
    is_augmenting_path,
    konig_cover,
    konig_vertices,
    path_structures,
    procedure_sides,
    verify_classification_witness,
    z_set,
)
from konigmatch import paths as paths_module
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import NotMaximal, PathExplosion
from konigmatch.oracle import all_maximal_matchings
from konigmatch.paths import ClassificationVerdict

import conftest
from conftest import (flip, labeled, ladder, matching_by_labels,
                      reference_path_structure_properties)


@pytest.fixture
def fork_matching(fork):
    return matching_by_labels(fork, [("b1", "c1")])


def _path_labels(g, p):
    return [g.labels[v] for v in p]


def test_enumerate_augmenting_paths_on_the_fork(fork, fork_matching):
    paths = enumerate_augmenting_paths(fork_matching)
    assert len(paths) == 6
    assert _path_labels(fork, paths[0]) == ["a1", "b1", "c1", "d1"]
    # lexicographic in vertex ids, each path once
    assert all(type(p) is tuple for p in paths)
    assert paths == sorted(set(paths))


def test_enumeration_limit():
    # 2^13 = 8192 paths, past the limit of 4096
    with pytest.raises(PathExplosion):
        enumerate_augmenting_paths(ladder(11)[1])


def test_fork_structure_pins(fork, fork_matching):
    ps = next(path_structures(fork_matching))
    assert _path_labels(fork, ps.base_path) == ["a1", "b1", "c1", "d1"]
    assert len(ps.family) == 6  # every path meets p at b1 or c1
    assert ps.vertices == fork.vertices
    assert ps.hat_cut_vertex == fork.vertex_by_label("b1")
    assert ps.z_after & ps.vertices == labeled(fork, "a1", "a2", "b1")


def test_a_structure_stores_only_its_defining_data(fork, fork_matching):
    ps = next(path_structures(fork_matching))
    assert [f.name for f in dataclasses.fields(ps)] == [
        "matching", "base_path", "family", "vertices", "z_after"]
    assert ps.matching is fork_matching
    assert ps.stranded == labeled(fork, "d1", "d2", "d3")


def test_fork_hat_and_check_subgraphs(fork, fork_matching):
    ps = next(path_structures(fork_matching))
    assert hat_vertices(ps) == labeled(fork, "c1", "d1", "d2", "d3")


def test_structure_without_second_root_keeps_everything(p4):
    (ps,) = path_structures(matching_by_labels(p4, [("2", "3")]))
    assert ps.hat_cut_vertex is None
    assert hat_vertices(ps) == ps.vertices


def _leaves_u_free(m):
    return len(m) < len(procedure_sides(m.graph)[0])


@pytest.mark.parametrize("sweep, enumerated, expected", [
    # a matching that saturates U has no augmenting path, so the sweep
    # does not enumerate its paths
    (verify.sweep_path_structure_properties, _leaves_u_free, 30),
    # classification grows each matching to maximum and enumerates nothing
    (verify.sweep_classification, lambda m: False, 0),
], ids=["sweep_path_structure_properties", "sweep_classification"])
def test_sweep_enumerates_augmenting_paths_once_per_matching(monkeypatch,
                                                             sweep, enumerated,
                                                             expected):
    calls = []

    def recording(m):
        calls.append(m)
        return enumerate_augmenting_paths(m)

    monkeypatch.setattr("konigmatch.paths.enumerate_augmenting_paths",
                        recording)
    assert sweep(6, jobs=1).ok
    matchings = [m for g in cached_corpus(6) for m in all_maximal_matchings(g)]
    assert len(matchings) == 127
    assert calls == [m for m in matchings if enumerated(m)]
    assert len(calls) == expected


def test_classification_of_the_fork(fork, fork_matching):
    verdict = classify_matching(fork_matching)
    assert not verdict.is_minimum
    # K(M) = {b1, d1, d2, d3}, but {b1, c1} covers too
    assert verdict.witness == labeled(fork, "b1", "c1")
    assert verify_classification_witness(fork_matching, verdict)


def test_classification_of_a_good_maximal_matching(p4):
    m = matching_by_labels(p4, [("2", "3")])
    verdict = classify_matching(m)
    assert verdict.is_minimum
    (path,) = verdict.witness
    assert _path_labels(p4, path) == ["1", "2", "3", "4"]
    assert verify_classification_witness(m, verdict)


def test_classification_rejects_non_maximal(fork):
    with pytest.raises(NotMaximal):
        classify_matching(Matching(fork, ()))


def test_classification_enumerates_no_paths(monkeypatch):
    def no_enumeration(m):
        raise AssertionError("augmenting paths were enumerated")

    monkeypatch.setattr("konigmatch.paths.enumerate_augmenting_paths",
                        no_enumeration)
    _, m = ladder(200)  # 2^202 augmenting paths
    verdict = classify_matching(m)
    assert verdict.is_minimum
    assert len(verdict.witness) == 2
    assert verify_classification_witness(m, verdict)


def test_the_default_limit_gives_classification_a_practical_end():
    # 2^13 paths are past the default limit, so enumerating them stops at
    # once; classification enumerates none and proves both ladders minimum
    for steps in (6, 11):
        _, m = ladder(steps)
        verdict = classify_matching(m)
        assert verdict.is_minimum
        assert verify_classification_witness(m, verdict)
    with pytest.raises(PathExplosion):
        enumerate_augmenting_paths(m)


def test_the_classification_sweep_is_clean_at_nine_vertices():
    result = verify.sweep_classification(9)
    assert (result.cases, result.violations) == (20552, [])


def test_forged_classification_witnesses_are_rejected(fork, fork_matching):
    # on the one-step ladder K(M) is minimum, proved by two disjoint
    # paths from x0 and y0
    g, m = ladder(1)

    def path(*labels):
        return tuple(g.vertex_by_label(x) for x in labels)

    via_p0 = path("x0", "p0", "x1", "p1")
    assert verify_classification_witness(m, ClassificationVerdict(
        True, (via_p0, path("y0", "q0", "y1", "q1"))))
    for forged in [(via_p0, path("y0", "p0", "x1", "q1")),  # overlapping
                   (via_p0,)]:  # one path too few
        assert not verify_classification_witness(
            m, ClassificationVerdict(True, forged))
    # on the fork K(M) = {b1, d1, d2, d3} is not minimum
    assert verify_classification_witness(fork_matching, ClassificationVerdict(
        False, labeled(fork, "b1", "c1")))
    for forged in [labeled(fork, "b1", "d1"),  # misses c1-d2
                   labeled(fork, "b1", "c1", "d1", "d2")]:  # not smaller
        assert not verify_classification_witness(
            fork_matching, ClassificationVerdict(False, forged))


def test_the_witness_check_judges_every_path(p4):
    # the README's path graph: K(M) = {2, 4} is minimum, proved by the
    # one path 1-2-3-4
    m = matching_by_labels(p4, [("2", "3")])
    assert verify_classification_witness(
        m, ClassificationVerdict(True, ((0, 2, 1, 3),)))
    for forged in [(0, 3),  # 1-4 is not an edge
                   (0, 2, 1, 0)]:  # 1 twice
        assert verify_classification_witness(
            m, ClassificationVerdict(True, (forged,))) is False


def test_the_witness_check_answers_a_malformed_witness(p4, fork,
                                                       fork_matching):
    m = matching_by_labels(p4, [("2", "3")])
    for verdict in [ClassificationVerdict(True, frozenset({0, 3})),
                    ClassificationVerdict(True, [(0, 2, 1, 3)]),
                    ClassificationVerdict(True, ([0, 2, 1, 3],)),
                    ClassificationVerdict(False, ((0, 2, 1, 3),))]:
        assert verify_classification_witness(m, verdict) is False
    # a path tuple is not a cover, though it names a covering set
    assert verify_classification_witness(
        fork_matching, ClassificationVerdict(
            False, tuple(labeled(fork, "b1", "c1")))) is False


def test_single_root_preserves_cover_size_but_not_the_cover_set(p4):
    # augmenting 1-2-3-4 moves the cover from {2,4} to {1,3}: with a
    # single unsaturated root the cover *cardinality* is invariant on the
    # structure, but the cover as a set is not
    m = matching_by_labels(p4, [("2", "3")])
    (p,) = enumerate_augmenting_paths(m)
    before = konig_cover(m).vertices
    after = konig_cover(flip(m, p)).vertices
    assert before == labeled(p4, "2", "4")
    assert after == labeled(p4, "1", "3")
    assert before != after
    assert len(before) == len(after)


def test_augmentation_can_flip_the_whole_cover():
    # a perfect-matching augmentation may move every cover vertex to the
    # other side, so no per-vertex membership statement survives it
    g = build_graph(3, 3, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0)])
    m = Matching(g, [(0, 4), (2, 3)])
    p = (1, 4, 0, 5)
    assert is_augmenting_path(m, p)
    assert konig_cover(m).vertices == g.right
    assert konig_cover(flip(m, p)).vertices == g.left


def _five_thousand_vertex_path():
    # a0 - b0 - a1 - b1 - ... - b2499 with b_i matched to a_{i+1}
    half = 2500
    g = build_graph(half, half, [(i, i) for i in range(half)]
                    + [(i + 1, i) for i in range(half - 1)])
    return Matching(g, [(i + 1, half + i) for i in range(half - 1)])


def test_a_5000_vertex_augmenting_path_needs_no_recursion():
    # the one augmenting path runs through all 5000 vertices
    half = 2500
    m = _five_thousand_vertex_path()
    (p,) = enumerate_augmenting_paths(m)
    assert p == tuple(v for i in range(half) for v in (i, half + i))
    assert classify_matching(m).witness == (p,)


def test_classification_on_the_smallest_nine_vertex_counterexample():
    # m is maximal and Kőnig's cover {4, ..., 8} has 5 vertices, against
    # ν = 4; each of the four augmenting paths strands one unsaturated
    # V-vertex, so no single augmentation shrinks the cover, two do
    g = build_graph(4, 5, [(0, 0), (0, 2), (0, 3), (1, 1), (1, 2), (1, 4),
                           (2, 3), (3, 4)])
    m = Matching(g, [(0, 7), (1, 8)])
    verdict = classify_matching(m)
    assert not konig_cover(m).is_minimum
    assert not verdict.is_minimum
    assert verdict.witness == {0, 1, 2, 3}
    assert verify_classification_witness(m, verdict)


def _reference_hat(ps):
    """The hat's vertices cut independently: drop every prefix, up to the
    hat cut vertex, of a family path into the base path's endpoint."""
    vertices = set().union(*ps.family)
    if ps.hat_cut_vertex is not None:
        end = ps.base_path[-1]
        for q in ps.family:
            if q[-1] == end and ps.hat_cut_vertex in q:
                cut = q.index(ps.hat_cut_vertex)
                vertices.difference_update(q[:cut + 1])
    return vertices


def test_structures_match_the_reference_graphs_on_the_corpus():
    structures = hat_cuts = 0
    for g in cached_corpus(7):
        u_side, _ = procedure_sides(g)
        for m in all_maximal_matchings(g):
            paths = enumerate_augmenting_paths(m)
            built = list(path_structures(m))
            assert [ps.base_path for ps in built] == paths
            for p, ps in zip(paths, built):
                assert ps.matching is m
                assert ps.family == tuple(q for q in paths if set(p) & set(q))
                assert ps.vertices == set().union(*ps.family)
                assert hat_vertices(ps) == _reference_hat(ps)
                augmented = flip(m, p)
                assert ps.z_after == z_set(augmented)
                assert u_side ^ ps.z_after == konig_vertices(augmented)
                structures += 1
                hat_cuts += ps.hat_cut_vertex is not None
    assert (structures, hat_cuts) == (253, 10)


def test_classification_and_the_sweep_build_no_graphs(monkeypatch, fork,
                                                      fork_matching):
    cached_corpus(6)  # the sweeps' graphs, built before the patch

    def no_graphs(*args, **kwargs):
        raise AssertionError("a structure graph was built")

    monkeypatch.setattr(BipartiteGraph, "__init__", no_graphs)
    assert not classify_matching(fork_matching).is_minimum
    assert verify.sweep_path_structure_properties(6).ok
    assert verify.sweep_classification(6).ok


def test_drawing_structures_builds_no_matching(monkeypatch):
    # the maximal matchings are enumerated before the patch
    matchings = [m for g in cached_corpus(7) for m in all_maximal_matchings(g)]
    _, ladder_matching = ladder(1)
    built = []
    real_init = Matching.__init__
    real_unchecked = Matching._unchecked.__func__

    def counting_init(self, *args):
        built.append("__init__")
        real_init(self, *args)

    def counting_unchecked(cls, *args):
        built.append("_unchecked")
        return real_unchecked(cls, *args)

    monkeypatch.setattr(Matching, "__init__", counting_init)
    monkeypatch.setattr(Matching, "_unchecked", classmethod(counting_unchecked))
    structures = 0
    for m in matchings:
        for ps in path_structures(m):
            # reading the derived sets builds none either
            assert hat_vertices(ps) and ps.stranded <= ps.vertices
            structures += 1
    assert (structures, built) == (253, [])
    # the counters do see a matching being built
    flip(ladder_matching, enumerate_augmenting_paths(ladder_matching)[0])
    assert built == ["__init__"]


def test_enumerated_paths_pass_the_augmenting_path_check():
    # the enumerator does not judge its paths; each must be a vertex
    # tuple that is_augmenting_path accepts
    matchings = [m for g in cached_corpus(8) for m in all_maximal_matchings(g)]
    matchings += [ladder(5)[1], _five_thousand_vertex_path()]
    paths = 0
    for m in matchings:
        for p in enumerate_augmenting_paths(m):
            assert type(p) is tuple and is_augmenting_path(m, p)
            paths += 1
    assert paths == 3685 + 2 ** 7 + 1


def _drop_from_konig_vertices(monkeypatch):
    # K(M) loses its smallest vertex on one graph, in the check and in
    # the reference alike; the next-to-last 8-vertex graph's maximal
    # matchings have 90 augmenting paths (the last graph's have none)
    target = cached_corpus(8)[-2]

    def dropping(m):
        k = konig_vertices(m)
        return k - {min(k)} if m.graph is target else k

    monkeypatch.setattr(verify, "konig_vertices", dropping)
    monkeypatch.setattr(conftest, "konig_vertices", dropping)


def _drop_from_z_after(monkeypatch):
    # every Z(M △ P) loses its smallest vertex, if it has one
    real = paths_module._z_after

    def dropping(m, p, roots):
        z = real(m, p, roots)
        return z - {min(z, default=None)}

    monkeypatch.setattr(paths_module, "_z_after", dropping)


@pytest.mark.parametrize("fault", [None, _drop_from_konig_vertices,
                                   _drop_from_z_after],
                         ids=["clean", "konig-vertices", "z-after"])
def test_the_structure_check_reports_what_the_reference_reports(monkeypatch,
                                                                fault):
    if fault is not None:
        fault(monkeypatch)
    reference = verify.SweepResult("path-structure-properties")
    for i, g in enumerate(cached_corpus(8)):
        reference_path_structure_properties(verify.GraphRecord(g, i),
                                            reference)
    result = verify.sweep_path_structure_properties(8)
    assert result == reference
    assert result.cases == 21786
    assert len(result.violations) == {None: 0, _drop_from_konig_vertices: 90,
                                      _drop_from_z_after: 816}[fault]
