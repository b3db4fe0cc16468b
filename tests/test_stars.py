import pytest

from konigmatch import (
    BipartiteGraph,
    Matching,
    is_enumeratively_konig_egervary,
    is_maximal,
    konig_cover,
    konig_vertices,
    matching_number,
    maximal_witness,
    maximum_matching,
    restrict_cover,
    star_stud,
    stars,
    verify,
)
from konigmatch.corpus import cached_corpus
from konigmatch.errors import EmptyGraph, NotMinimumCover, RoundTripFailed
from konigmatch.konig import _konig_mask
from konigmatch.oracle import (
    OracleBudget,
    all_maximal_matchings,
    all_minimum_covers,
)

# room for the studded graphs of cached_corpus(5), 25 vertices at most
BUDGET = OracleBudget(max_vertices=26, max_subsets=2 ** 21)
# room for the studded graphs of cached_corpus(6), 31 vertices at most
WITNESS_BUDGET = OracleBudget(max_vertices=31, max_subsets=2 ** 21)

from conftest import labeled, lift_cover, star_centers


def reached_minimum_covers(matchings):
    """The minimum covers Kőnig's procedure yields from ``matchings``: the
    full walk the lazy and witness verdicts are checked against.  K(M)
    always covers, so it is minimum exactly when it has ν(G) vertices."""
    reached = set()
    for m in matchings:
        k = konig_vertices(m)
        if len(k) == matching_number(m.graph):
            reached.add(k)
    return reached


def test_star_stud_shape(p4):
    ssg = star_stud(p4)
    assert ssg.base == p4
    assert len(ssg.full.vertices) == 4 + 4 * 4
    assert len(ssg.full.edges) == 3 + 4 * 4
    assert len(star_centers(ssg)) == 4
    for v, (center, *leaves) in ssg.attachment.items():
        left = ssg.full.left
        assert (center in left) != (v in left)
        assert all((leaf in left) == (v in left) for leaf in leaves)
        assert ssg.full.edge_key(v, center) in ssg.full.edges
        assert all(ssg.full.edge_key(leaf, center) in ssg.full.edges
                   for leaf in leaves)


def test_star_stud_labels_are_derived(p4):
    ssg = star_stud(p4)
    center, l1, _, l3 = ssg.attachment[p4.vertex_by_label("2")]
    assert ssg.full.labels[center] == "2*c"
    assert ssg.full.labels[l1] == "2*l1"
    assert ssg.full.labels[l3] == "2*l3"


def test_star_stud_rejects_one_sided_graphs():
    with pytest.raises(EmptyGraph):
        star_stud(BipartiteGraph({0}, set(), []))


def test_lift_and_restrict_are_inverse(p4):
    ssg = star_stud(p4)
    for base_cover in all_minimum_covers(p4):
        lifted = lift_cover(ssg, base_cover)
        assert lifted == base_cover | star_centers(ssg)
        assert restrict_cover(ssg, lifted) == base_cover


def test_lift_and_restrict_validate_their_input(p4):
    ssg = star_stud(p4)
    with pytest.raises(NotMinimumCover):
        lift_cover(ssg, labeled(p4, "1", "4"))
    with pytest.raises(NotMinimumCover):
        restrict_cover(ssg, star_centers(ssg))


def test_studded_minimum_covers_are_exactly_the_lifts():
    # studded graphs of up to 31 vertices, beyond the subset scan's reach
    for h in cached_corpus(6):
        ssg = star_stud(h)
        assert len(maximum_matching(ssg.full)) == \
            len(maximum_matching(h)) + len(star_centers(ssg))
        lifted = {lift_cover(ssg, c) for c in all_minimum_covers(h)}
        assert all_minimum_covers(ssg.full, WITNESS_BUDGET) == lifted


def test_path_graph_is_not_enumeratively_reachable(p4):
    # only two maximal matchings exist and they reach {1,3} and {2,4};
    # the third minimum cover {2,3} is never produced
    reached = set()
    for m in all_maximal_matchings(p4):
        reached.add(konig_cover(m).vertices)
    assert reached == {labeled(p4, "1", "3"), labeled(p4, "2", "4")}
    assert not is_enumeratively_konig_egervary(p4)


def test_studded_path_graph_is_enumeratively_reachable(p4):
    assert is_enumeratively_konig_egervary(star_stud(p4).full, BUDGET)


def studded_graphs(max_vertices):
    return [star_stud(h).full for h in cached_corpus(max_vertices)]


def test_lazy_verdicts_match_a_full_enumeration():
    verdicts = []
    for g in list(cached_corpus(6)) + studded_graphs(5):
        full = all_minimum_covers(g, BUDGET) <= reached_minimum_covers(
            all_maximal_matchings(g, BUDGET))
        assert is_enumeratively_konig_egervary(g, BUDGET) == full
        verdicts.append(full)
    assert True in verdicts and False in verdicts


@pytest.fixture(scope="module")
def witnesses():
    """(graph, minimum cover, its maximal witness or None) for every
    minimum cover of cached_corpus(8) and of the studded cached_corpus(6)."""
    return [(g, c, maximal_witness(g, c, WITNESS_BUDGET))
            for g in list(cached_corpus(8)) + studded_graphs(6)
            for c in all_minimum_covers(g, WITNESS_BUDGET)]


def test_witnesses_agree_with_a_walk_of_every_maximal_matching(witnesses):
    reached = {}
    for g, c, w in witnesses:
        if g not in reached:
            reached[g] = reached_minimum_covers(
                all_maximal_matchings(g, WITNESS_BUDGET))
        assert (w is not None) == (c in reached[g])
    # both verdicts occur: 145 of the 589 covers have no witness
    assert len(witnesses) == 589
    assert sum(w is None for _, _, w in witnesses) == 145


def test_every_witness_is_a_maximal_matching_giving_its_cover(witnesses):
    for g, c, w in witnesses:
        if w is not None:
            assert isinstance(w, Matching) and w.graph == g
            assert is_maximal(w)
            assert konig_vertices(w) == c


def test_a_witness_giving_another_cover_raises(monkeypatch, p4):
    # {1, 3} has the witness {1-2, 3-4}; a K(M) missing a vertex makes
    # the final check refuse it
    cover = labeled(p4, "1", "3")
    assert konig_vertices(maximal_witness(p4, cover)) == cover
    monkeypatch.setattr(stars, "_konig_mask",
                        lambda m: _konig_mask(m) & ~(1 << min(cover)))
    with pytest.raises(RoundTripFailed):
        maximal_witness(p4, cover)


def test_the_witness_search_needs_a_minimum_cover(p4):
    assert maximal_witness(p4, labeled(p4, "2", "3")) is None
    with pytest.raises(NotMinimumCover):
        maximal_witness(p4, labeled(p4, "1", "2", "3"))
    with pytest.raises(NotMinimumCover):
        maximal_witness(p4, labeled(p4, "1", "4"))


def test_the_star_studded_sweep_builds_no_up_part_graph(monkeypatch):
    cached_corpus(5)  # the base graphs, built before the count
    builds = []
    real_store = BipartiteGraph._store

    def counting_store(self, *args):
        builds.append(self)
        real_store(self, *args)

    # every build, by the constructor or from masks, stores its masks
    monkeypatch.setattr(BipartiteGraph, "_store", counting_store)
    assert verify.sweep_star_studded(5).ok
    # 10 studded graphs and the 23 components of their covers' up parts;
    # building each up part too, before splitting it, made 48
    assert len(builds) == 33
