import json

import pytest

from konigmatch.errors import InputError, NotBipartite
from konigmatch.io import (
    graph_from_edge_list,
    graph_from_json_dict,
    graph_to_json_dict,
    load_graph,
    load_matching,
    load_vertex_set,
    matching_from_json,
    matching_to_json,
    vertex_set_to_json,
)

from conftest import FIXTURES, labeled


def test_load_json_graph():
    g = load_graph(str(FIXTURES / "p4.json"))
    assert {g.labels[v] for v in g.left} == {"1", "3"}
    assert {g.labels[v] for v in g.right} == {"2", "4"}
    assert len(g.edges) == 3
    assert g.edge_key(g.vertex_by_label("2"), g.vertex_by_label("3")) \
        in g.edges


def test_load_edge_list_infers_sides():
    g = load_graph(str(FIXTURES / "path.edges"))
    assert len(g.vertices) == 4
    assert len(g.edges) == 3
    # w-x-y-z two-colors with w, y on one side
    w, x, y = (g.vertex_by_label(label) for label in "wxy")
    assert (w in g.left) == (y in g.left)
    assert (w in g.left) != (x in g.left)


def test_edge_list_rejects_odd_cycles():
    with pytest.raises(NotBipartite):
        load_graph(str(FIXTURES / "triangle.edges"))


def test_edge_list_rejects_malformed_lines():
    with pytest.raises(InputError):
        graph_from_edge_list("a b c\n")
    with pytest.raises(InputError):
        graph_from_edge_list("a a\n")


def test_json_graph_validation():
    with pytest.raises(InputError):
        graph_from_json_dict({"left": ["a"], "right": ["b"]})
    with pytest.raises(InputError):
        graph_from_json_dict({"left": ["a"], "right": ["a"], "edges": []})
    with pytest.raises(InputError):
        graph_from_json_dict(
            {"left": ["a", "b"], "right": ["c"], "edges": [["a", "b"]]})
    with pytest.raises(InputError):
        graph_from_json_dict(
            {"left": ["a"], "right": ["c"], "edges": [["a", "zz"]]})


def test_graph_json_round_trip(fork):
    data = graph_to_json_dict(fork)
    again = graph_from_json_dict(data)
    assert graph_to_json_dict(again) == data
    assert len(again.edges) == len(fork.edges)


def test_non_object_json_is_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(InputError):
        load_graph(str(bad))


def test_matching_round_trip(fork):
    m = matching_from_json(fork, [["b1", "c1"]])
    assert matching_to_json(m) == [["c1", "b1"]] or \
        matching_to_json(m) == [["b1", "c1"]]
    assert len(m) == 1


def test_load_matching_from_fixture(tmp_path):
    g = load_graph(str(FIXTURES / "fork.json"))
    m = load_matching(g, str(FIXTURES / "fork_matching.json"))
    assert m.saturates(g.vertex_by_label("b1"))
    assert m.saturates(g.vertex_by_label("c1"))


def test_matching_json_validation(fork):
    with pytest.raises(InputError):
        matching_from_json(fork, [["b1"]])
    with pytest.raises(InputError):
        matching_from_json(fork, [["b1", "zz"]])


def test_load_matching_rejects_non_arrays(fork, tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"edges": []}))
    with pytest.raises(InputError):
        load_matching(fork, str(bad))
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_matching(fork, str(bad))


def test_vertex_set_round_trip(fork, tmp_path):
    f = tmp_path / "cover.json"
    f.write_text(json.dumps(["b1", "c1"]))
    vs = load_vertex_set(fork, str(f))
    assert vs == labeled(fork, "b1", "c1")
    assert vertex_set_to_json(fork, vs) == ["c1", "b1"]
    f.write_text(json.dumps(["nope"]))
    with pytest.raises(InputError):
        load_vertex_set(fork, str(f))
