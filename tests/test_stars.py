import pytest

from konigmatch import (
    BipartiteGraph,
    is_enumeratively_konig_egervary,
    konig_cover,
    lift_cover,
    maximum_matching,
    reached_minimum_covers,
    restrict_cover,
    star_stud,
)
from konigmatch import oracle, stars, verify
from konigmatch.corpus import cached_corpus
from konigmatch.errors import EmptyGraph, NotMinimumCover
from konigmatch.oracle import (
    OracleBudget,
    all_maximal_matchings,
    all_minimum_covers,
    iter_maximal_matchings,
)

# room for the studded graphs of cached_corpus(5), 25 vertices at most
BUDGET = OracleBudget(max_vertices=26, max_subsets=2 ** 21)

from conftest import labeled


def test_star_stud_shape(p4):
    ssg = star_stud(p4)
    assert ssg.base == p4
    assert len(ssg.full.vertices) == 4 + 4 * 4
    assert len(ssg.full.edges) == 3 + 4 * 4
    assert len(ssg.centers) == 4
    for v, (center, *leaves) in ssg.attachment.items():
        assert ssg.full.side(center) != ssg.full.side(v)
        assert all(ssg.full.side(leaf) == ssg.full.side(v)
                   for leaf in leaves)
        assert ssg.full.has_edge(v, center)
        assert all(ssg.full.has_edge(leaf, center) for leaf in leaves)


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
        assert lifted == base_cover | ssg.centers
        assert restrict_cover(ssg, lifted) == base_cover


def test_lift_and_restrict_validate_their_input(p4):
    ssg = star_stud(p4)
    with pytest.raises(NotMinimumCover):
        lift_cover(ssg, labeled(p4, "1", "4"))
    with pytest.raises(NotMinimumCover):
        restrict_cover(ssg, ssg.centers)


def test_studded_minimum_covers_are_exactly_the_lifts(p4):
    ssg = star_stud(p4)
    assert len(maximum_matching(ssg.full)) == \
        len(maximum_matching(p4)) + len(ssg.centers)
    lifted = {lift_cover(ssg, c) for c in all_minimum_covers(p4)}
    assert all_minimum_covers(ssg.full, BUDGET) == lifted


def test_path_graph_is_not_enumeratively_reachable(p4):
    # only two maximal matchings exist and they reach {1,3} and {2,4};
    # the third minimum cover {2,3} is never produced
    reached = set()
    for m in all_maximal_matchings(p4):
        reached.add(konig_cover(p4, m).vertices)
    assert reached == {labeled(p4, "1", "3"), labeled(p4, "2", "4")}
    assert not is_enumeratively_konig_egervary(p4)


def test_studded_path_graph_is_enumeratively_reachable(p4):
    assert is_enumeratively_konig_egervary(star_stud(p4).full, BUDGET)


def test_star_sweep_enumerates_each_studded_graph_once(monkeypatch):
    calls = []

    def counting(g, b=None):
        calls.append(g)
        return oracle.iter_maximal_matchings(g, b)

    for module in (stars, verify):
        monkeypatch.setattr(module, "iter_maximal_matchings", counting)
    result = verify.sweep_star_studded(3)
    assert result.ok
    assert calls == [star_stud(h).full for h in cached_corpus(3)]


def studded_graphs(max_vertices):
    return [star_stud(h).full for h in cached_corpus(max_vertices)]


def test_stopping_at_the_last_witness_reaches_the_same_covers():
    for g in studded_graphs(5):
        wanted = all_minimum_covers(g, BUDGET)
        full = reached_minimum_covers(g, all_maximal_matchings(g, BUDGET))
        early = reached_minimum_covers(
            g, iter_maximal_matchings(g, BUDGET), until=wanted)
        assert early == full == wanted


def test_until_stops_only_once_every_cover_is_reached(p4):
    wanted = all_minimum_covers(p4)
    # {2,3} is never reached, so the whole walk runs
    assert reached_minimum_covers(p4, iter_maximal_matchings(p4),
                                  until=wanted) == wanted - {
        labeled(p4, "2", "3")}
    assert reached_minimum_covers(p4, iter_maximal_matchings(p4),
                                  until=set()) == set()


def test_lazy_verdicts_match_a_full_enumeration():
    verdicts = []
    for g in list(cached_corpus(6)) + studded_graphs(5):
        full = all_minimum_covers(g, BUDGET) <= reached_minimum_covers(
            g, all_maximal_matchings(g, BUDGET))
        assert is_enumeratively_konig_egervary(g, BUDGET) == full
        verdicts.append(full)
    assert True in verdicts and False in verdicts


def test_the_star_check_stops_before_the_end_of_the_walk(monkeypatch):
    drawn = []

    def counting(g, b=None):
        for m in oracle.iter_maximal_matchings(g, b):
            drawn.append(m)
            yield m

    monkeypatch.setattr(stars, "iter_maximal_matchings", counting)
    graphs = studded_graphs(5)
    assert all(is_enumeratively_konig_egervary(g, BUDGET) for g in graphs)
    # the last cover of each graph is reached after a quarter of its walk
    assert len(drawn) == 3350
    assert sum(len(all_maximal_matchings(g, BUDGET)) for g in graphs) == 13393
