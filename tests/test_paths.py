import dataclasses

import pytest

from konigmatch import (
    AugmentingPath,
    BipartiteGraph,
    Matching,
    augment,
    build_graph,
    classify_matching,
    enumerate_augmenting_paths,
    hat_vertices,
    konig_cover,
    konig_vertices,
    path_structures,
    procedure_sides,
    z_set,
)
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import NotMaximal, PathExplosion
from konigmatch.oracle import all_maximal_matchings

from conftest import labeled, ladder, matching_by_labels


@pytest.fixture
def fork_matching(fork):
    return matching_by_labels(fork, [("b1", "c1")])


def _path_labels(g, p):
    return [g.labels[v] for v in p.vertices]


def test_enumerate_augmenting_paths_on_the_fork(fork, fork_matching):
    paths = enumerate_augmenting_paths(fork_matching)
    assert len(paths) == 6
    assert _path_labels(fork, paths[0]) == ["a1", "b1", "c1", "d1"]
    # lexicographic in vertex ids, each path once
    sequences = [p.vertices for p in paths]
    assert sequences == sorted(set(sequences))


def test_enumeration_limit(fork, fork_matching):
    with pytest.raises(PathExplosion):
        enumerate_augmenting_paths(fork_matching, limit=3)
    with pytest.raises(PathExplosion):
        enumerate_augmenting_paths(fork_matching, limit=0)


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
        "base_path", "family", "vertices", "z_after"]
    assert ps.stranded == labeled(fork, "d1", "d2", "d3")
    # the classification reports the same stranded set as its witness
    verdict = classify_matching(fork_matching)
    assert verdict.witness == (ps.base_path, ps.stranded)


def test_fork_hat_and_check_subgraphs(fork, fork_matching):
    ps = next(path_structures(fork_matching))
    assert hat_vertices(ps) == labeled(fork, "c1", "d1", "d2", "d3")


def test_structure_without_second_root_keeps_everything(p4):
    (ps,) = path_structures(matching_by_labels(p4, [("2", "3")]))
    assert ps.hat_cut_vertex is None
    assert hat_vertices(ps) == ps.vertices


@pytest.mark.parametrize("sweep", [verify.sweep_path_structure_properties,
                                   verify.sweep_classification],
                         ids=lambda sweep: sweep.__name__)
def test_sweep_enumerates_augmenting_paths_once_per_matching(monkeypatch,
                                                             sweep):
    calls = []

    def recording(m, *limit):
        calls.append(m)
        return enumerate_augmenting_paths(m, *limit)

    monkeypatch.setattr("konigmatch.paths.enumerate_augmenting_paths",
                        recording)
    assert sweep(6).ok
    assert calls == [m for g in cached_corpus(6)
                     for m in all_maximal_matchings(g)]
    assert len(calls) == 127


def test_classification_of_the_fork(fork, fork_matching):
    verdict = classify_matching(fork_matching)
    assert not verdict.is_minimum
    path, stranded = verdict.witness
    assert _path_labels(fork, path) == ["a1", "b1", "c1", "d1"]
    assert stranded == labeled(fork, "d1", "d2", "d3")


def test_classification_of_a_good_maximal_matching(p4):
    verdict = classify_matching(matching_by_labels(p4, [("2", "3")]))
    assert verdict.is_minimum
    assert verdict.witness is None


def test_classification_rejects_non_maximal(fork):
    with pytest.raises(NotMaximal):
        classify_matching(Matching(fork, ()))


def test_the_default_limit_gives_classification_a_practical_end():
    # 2^8 paths classify at once; 2^13 paths, past the default limit,
    # stop at once instead of classifying for about 15 s (quadratic in the
    # path count)
    assert classify_matching(ladder(6)[1]).is_minimum
    with pytest.raises(PathExplosion):
        classify_matching(ladder(11)[1])


def test_single_root_preserves_cover_size_but_not_the_cover_set(p4):
    # augmenting 1-2-3-4 moves the cover from {2,4} to {1,3}: with a
    # single unsaturated root the cover *cardinality* is invariant on the
    # structure, but the cover as a set is not
    m = matching_by_labels(p4, [("2", "3")])
    (p,) = enumerate_augmenting_paths(m)
    before = konig_cover(m).vertices
    after = konig_cover(Matching(p4, m.edges ^ p.edges)).vertices
    assert before == labeled(p4, "2", "4")
    assert after == labeled(p4, "1", "3")
    assert before != after
    assert len(before) == len(after)


def test_augmentation_can_flip_the_whole_cover():
    # a perfect-matching augmentation may move every cover vertex to the
    # other side, so no per-vertex membership statement survives it
    g = build_graph(3, 3, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0)])
    m = Matching(g, [(0, 4), (2, 3)])
    p = AugmentingPath((1, 4, 0, 5), m)
    assert konig_cover(m).vertices == g.right
    assert konig_cover(Matching(g, m.edges ^ p.edges)).vertices == g.left


def test_a_5000_vertex_augmenting_path_needs_no_recursion():
    # path a0 - b0 - a1 - b1 - ... - b2499 with b_i matched to a_{i+1}:
    # the one augmenting path runs through all 5000 vertices
    half = 2500
    g = build_graph(half, half, [(i, i) for i in range(half)]
                    + [(i + 1, i) for i in range(half - 1)])
    m = Matching(g, [(i + 1, half + i) for i in range(half - 1)])
    (p,) = enumerate_augmenting_paths(m)
    assert p.vertices == tuple(v for i in range(half) for v in (i, half + i))
    assert classify_matching(m).is_minimum


@pytest.mark.xfail(strict=True, reason="known defect, see the FOUND line on "
                   "classify_matching in CHANGES.md")
def test_classification_on_the_smallest_nine_vertex_counterexample():
    # m is maximal and Kőnig's cover {4, ..., 8} has 5 vertices, against
    # ν = 4; each of the four augmenting paths strands one unsaturated
    # V-vertex, so no single augmentation shrinks the cover, two do
    g = build_graph(4, 5, [(0, 0), (0, 2), (0, 3), (1, 1), (1, 2), (1, 4),
                           (2, 3), (3, 4)])
    m = Matching(g, [(0, 7), (1, 8)])
    assert classify_matching(m).is_minimum == konig_cover(m).is_minimum


def _reference_hat(ps):
    """The hat's vertices cut independently: drop every prefix, up to the
    hat cut vertex, of a family path into the base path's endpoint."""
    vertices = set().union(*(q.vertices for q in ps.family))
    if ps.hat_cut_vertex is not None:
        end = ps.base_path.vertices[-1]
        for q in ps.family:
            if q.vertices[-1] == end and ps.hat_cut_vertex in q.vertices:
                cut = q.vertices.index(ps.hat_cut_vertex)
                vertices.difference_update(q.vertices[:cut + 1])
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
                assert ps.family == tuple(
                    q for q in paths if set(p.vertices) & set(q.vertices))
                assert ps.vertices == set().union(*(q.vertices
                                                    for q in ps.family))
                assert hat_vertices(ps) == _reference_hat(ps)
                augmented = augment(p)
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
