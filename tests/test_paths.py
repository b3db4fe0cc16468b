import dataclasses

import pytest

from konigmatch import (
    BipartiteGraph,
    Matching,
    build_graph,
    classify_matching,
    enumerate_augmenting_paths,
    is_augmenting_path,
    konig_cover,
    konig_vertices,
    maximum_matching,
    path_structures,
    verify_classification_witness,
    z_set,
)
from konigmatch import paths as paths_module
from konigmatch import verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import NotMaximal, PathExplosion
from konigmatch.konig import _konig_mask
from konigmatch.oracle import all_maximal_matchings
from konigmatch.paths import ClassificationVerdict

import conftest
from conftest import (flip, labeled, ladder, matching_by_labels, rebuilt,
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
    # what defines a structure, then what is derived from it once, as it
    # is built: the stranded set, the hat's cut vertex and the hat
    ps = next(path_structures(fork_matching))
    assert [f.name for f in dataclasses.fields(ps)] == [
        "matching", "base_path", "family", "vertices", "z_after",
        "stranded", "hat_cut_vertex", "hat"]
    assert ps.matching is fork_matching
    assert ps.stranded == labeled(fork, "d1", "d2", "d3")


def test_fork_hat_and_check_subgraphs(fork, fork_matching):
    ps = next(path_structures(fork_matching))
    assert ps.hat == labeled(fork, "c1", "d1", "d2", "d3")


def test_structure_without_second_root_keeps_everything(p4):
    (ps,) = path_structures(matching_by_labels(p4, [("2", "3")]))
    assert ps.hat_cut_vertex is None
    assert ps.hat == ps.vertices


def _leaves_u_free(m):
    return len(m) < len(m.graph.u_side)


@pytest.mark.parametrize("sweep, enumerated, expected", [
    # a matching that saturates U has no augmenting path, so the sweep
    # does not enumerate its paths
    (verify.sweep_path_structure_properties, _leaves_u_free, 30),
    # classification reads M △ M* and enumerates nothing
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


@pytest.mark.parametrize("stranger", [2.0, "a", -1, None],
                         ids=["float", "string", "negative", "none"])
def test_a_cover_witness_with_no_vertex_id_is_answered_false(p4, stranger):
    # 2.0 equals the id 2, but no vertex id is a float; {1, 2} covers p4,
    # and "z" beside the stranger is one more element that is no id
    m = matching_by_labels(p4, [("2", "3")])
    for cover in [frozenset({stranger}), frozenset({1, stranger}),
                  frozenset({1, 2, stranger}), frozenset({"z", stranger})]:
        assert verify_classification_witness(
            m, ClassificationVerdict(False, cover)) is False


def test_a_float_id_in_a_smaller_cover_is_answered_false(fork, fork_matching):
    # {b1, c1} proves K(M) not minimum; c1's id as a float proves nothing
    b1, c1 = fork.vertex_by_label("b1"), fork.vertex_by_label("c1")
    assert verify_classification_witness(fork_matching, ClassificationVerdict(
        False, frozenset({b1, c1})))
    assert verify_classification_witness(fork_matching, ClassificationVerdict(
        False, frozenset({b1, float(c1)}))) is False


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
                    ClassificationVerdict(True, ((0, [2], 1),)),
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


def _even_walks(m, star):
    """The components of M △ M* walked from the left vertices ``m`` leaves
    free that end at a vertex ``star`` leaves free: even paths."""
    walks = []
    for u in m.unsaturated(m.graph.left):
        walk = [u]
        v = star.partner(u)
        while v is not None:
            walk.append(v)
            if not m.saturates(v):
                break
            walk.append(m.partner(v))
            v = star.partner(walk[-1])
        if v is None and len(walk) > 1:
            walks.append(tuple(walk))
    return walks


def test_classification_skips_an_even_component_of_the_kept_matching():
    # the corpus's first case, to 6 vertices, whose kept M* differs from M
    # by an even path out of an M-free left vertex: 1-3-2 ends at 2, which
    # M* leaves free, so it augments nothing
    cases = []
    for g in cached_corpus(6):
        h = rebuilt(g)
        star = maximum_matching(h)  # kept, from the empty matching
        cases += [(m, star) for m in all_maximal_matchings(h)
                  if _even_walks(m, star)]
    m, star = cases[0]
    g = m.graph
    assert (sorted(g.left), sorted(g.right), sorted(g.edges)) == (
        [0, 1, 2], [3, 4, 5], [(0, 3), (0, 4), (0, 5), (1, 3), (2, 3)])
    assert (sorted(m.edges), sorted(star.edges)) == (
        [(0, 5), (2, 3)], [(0, 4), (1, 3)])
    assert _even_walks(m, star) == [(1, 3, 2)]
    verdict = classify_matching(m)
    assert verdict == ClassificationVerdict(True, ())
    assert verify_classification_witness(m, verdict)


def test_classification_reads_the_kept_matching_as_it_grows_its_own():
    # M* kept from the empty search, or grown from M on a rebuilt graph
    # that keeps none: the same verdict, and each witness proves it
    matchings = minimum = even = 0
    for g in cached_corpus(8):
        kept = rebuilt(g)
        star = maximum_matching(kept)
        for m in all_maximal_matchings(kept):
            even += bool(_even_walks(m, star))
            fresh = Matching(rebuilt(g), m.edges)
            a, b = classify_matching(m), classify_matching(fresh)
            assert a.is_minimum == b.is_minimum
            assert verify_classification_witness(m, a)
            assert verify_classification_witness(fresh, b)
            if a.is_minimum:
                excess = len(konig_vertices(m)) - len(m)
                assert len(a.witness) == len(b.witness) == excess
                minimum += 1
            matchings += 1
    # the walk over the kept M* skips an even component on 54 of them
    assert (matchings, minimum, even) == (3166, 2969, 54)


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


def test_structures_match_the_reference_graphs_on_the_corpus():
    # family, vertices and hat are pinned by the mask-view test; here
    # Z(M △ P) and K(M △ P) are pinned to those of M △ P built as a
    # matching
    structures = hat_cuts = 0
    for g in cached_corpus(7):
        u_side = g.u_side
        for m in all_maximal_matchings(g):
            for ps in path_structures(m):
                assert ps.matching is m
                augmented = flip(m, ps.base_path)
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

    # every build, by the constructor or from masks, stores its masks
    monkeypatch.setattr(BipartiteGraph, "_store", no_graphs)
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
            assert ps.hat and ps.stranded <= ps.vertices
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

    def dropping_mask(m):
        k = _konig_mask(m)
        # k & (k - 1) clears the lowest bit: the smallest vertex
        return k & (k - 1) if m.graph is target else k

    monkeypatch.setattr(verify, "_konig_mask", dropping_mask)
    monkeypatch.setattr(conftest, "konig_vertices", dropping)


def _drop_from_z_after(monkeypatch):
    # every Z(M △ P) loses its smallest vertex, if it has one
    real = paths_module._z_after

    def dropping(m, p, roots):
        z = real(m, p, roots)
        return z & (z - 1)

    monkeypatch.setattr(paths_module, "_z_after", dropping)


@pytest.mark.parametrize("fault, n", [
    (None, 8), (_drop_from_konig_vertices, 8), (_drop_from_z_after, 8),
    (None, 9),
], ids=["clean", "konig-vertices", "z-after", "clean-9"])
def test_the_structure_check_reports_what_the_reference_reports(monkeypatch,
                                                                fault, n):
    if fault is not None:
        fault(monkeypatch)
    reference = verify.SweepResult("path-structure-properties")
    for i, g in enumerate(cached_corpus(n)):
        reference_path_structure_properties(verify.GraphRecord(g, i),
                                            reference)
    result = verify.sweep_path_structure_properties(n)
    assert result == reference
    assert result.cases == {8: 21786, 9: 237388}[n]
    assert len(result.violations) == {None: 0, _drop_from_konig_vertices: 90,
                                      _drop_from_z_after: 816}[fault]


def _off_the_corpus(source):
    """A maximal matching outside the corpus: the ladder with six rungs
    (2^7 paths from two roots, so hats are cut) or the 5000-vertex path
    (vertex ids far above 64 bits)."""
    if source == "ladder":
        return ladder(5)[1]
    return _five_thousand_vertex_path()


@pytest.mark.parametrize("source, structures, cuts", [
    ("corpus-9", 32553, 1998),
    ("ladder", 128, 128),
    ("5000-vertex-path", 1, 0),
])
def test_the_mask_views_equal_the_set_definitions(source, structures, cuts):
    # every structure's family, vertex set, Z(M △ P), stranded set, hat
    # cut and hat, read through the mask helper, equal the set-built ones
    if source == "corpus-9":
        matchings = [m for g in cached_corpus(9)
                     for m in all_maximal_matchings(g)]
    else:
        matchings = [_off_the_corpus(source)]
    built = [ps for m in matchings for ps in path_structures(m)]
    expected = [ref for m in matchings
                for ref in conftest.reference_structures(m)]
    assert len(built) == len(expected) == structures
    for ps, ref in zip(built, expected):
        assert ps.base_path == ref.base_path
        assert ps.family == ref.family
        assert ps.vertices == ref.vertices
        assert ps.z_after == ref.z_after
        assert ps.stranded == ref.stranded
        assert ps.hat_cut_vertex == ref.hat_cut_vertex
        assert ps.hat == ref.hat
    assert sum(ref.hat_cut_vertex is not None for ref in expected) == cuts


@pytest.mark.parametrize("fault", [None, _drop_from_z_after],
                         ids=["clean", "z-after"])
@pytest.mark.parametrize("source", ["ladder", "5000-vertex-path"])
def test_the_structure_check_agrees_with_the_reference_off_the_corpus(
        monkeypatch, source, fault):
    # augmenting the one path of the 5000-vertex path leaves no root, so
    # its Z(M △ P) is empty and the fault changes nothing there
    if fault is not None:
        fault(monkeypatch)
    m = _off_the_corpus(source)
    reference = verify.SweepResult("path-structure-properties")
    result = verify.SweepResult("path-structure-properties")
    for judge, sweep in [(reference_path_structure_properties, reference),
                         (verify._path_structure_properties, result)]:
        record = verify.GraphRecord(m.graph, 0)
        record.maximal_matchings = [m]
        judge(record, sweep)
    assert result == reference
    assert (result.cases, len(result.violations)) == {
        ("ladder", None): (8512, 0), ("ladder", _drop_from_z_after): (8512, 192),
        ("5000-vertex-path", None): (3, 0),
        ("5000-vertex-path", _drop_from_z_after): (3, 0)}[source, fault]
