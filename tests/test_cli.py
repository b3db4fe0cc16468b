import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from konigmatch import BipartiteGraph, build_graph, cli
from konigmatch.cli import run
from konigmatch.graph import MAX_VERTICES
from konigmatch.io import (
    graph_from_json_dict,
    graph_to_json_dict,
    matching_to_json,
)
from konigmatch.verify import available_cpus

from conftest import FIXTURES, ladder

P4 = str(FIXTURES / "p4.json")
FORK = str(FIXTURES / "fork.json")


# "$ konigmatch <args>" lines, each followed by that command's stdout
GOLDEN = re.split(r"^\$ konigmatch (.*)\n",
                  (FIXTURES / "cli_golden.txt").read_text(encoding="utf-8"),
                  flags=re.M)[1:]


@pytest.mark.parametrize("command, expected",
                         list(zip(GOLDEN[::2], GOLDEN[1::2])),
                         ids=GOLDEN[::2])
def test_cli_output_is_byte_identical_on_the_fixtures(command, expected,
                                                      capsys):
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg
            for arg in command.split()]
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_match_maximum(capsys):
    code, data = run_json(capsys, ["match", "--graph", P4])
    assert code == 0
    assert data["size"] == 2
    assert sorted(map(sorted, data["matching"])) == [["1", "2"], ["3", "4"]]


def test_match_maximal_is_seeded(capsys):
    code, a = run_json(capsys, ["match", "--graph", P4, "--maximal",
                                "--seed", "0"])
    assert code == 0
    for _ in range(3):
        code, again = run_json(capsys, ["match", "--graph", P4, "--maximal",
                                        "--seed", "0"])
        assert code == 0 and again == a


def test_cover_reports_verdicts(capsys):
    code, data = run_json(capsys, [
        "cover", "--graph", P4,
        "--matching", str(FIXTURES / "p4_mid_matching.json")])
    assert code == 0
    assert sorted(data["cover"]) == ["2", "4"]
    assert data["is_cover"] and data["is_minimal"] and data["is_minimum"]


def test_cover_on_the_fork_is_not_minimum(capsys):
    code, data = run_json(capsys, [
        "cover", "--graph", FORK,
        "--matching", str(FIXTURES / "fork_matching.json")])
    assert code == 0
    assert len(data["cover"]) == 4
    assert data["is_minimal"] and not data["is_minimum"]


def test_reverse_round_trip(capsys):
    code, data = run_json(capsys, [
        "reverse", "--graph", FORK,
        "--cover", str(FIXTURES / "fork_min_cover.json")])
    assert code == 0
    assert data["round_trip_ok"]
    assert sorted(data["round_trip_cover"]) == ["b1", "c1"]


def test_reverse_rejects_non_minimum_covers(tmp_path, capsys):
    bad = tmp_path / "bad_cover.json"
    bad.write_text(json.dumps(["b1", "d1", "d2", "d3"]))
    assert run(["reverse", "--graph", FORK, "--cover", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_classify_finds_a_witness(capsys):
    code, data = run_json(capsys, [
        "classify", "--graph", FORK,
        "--matching", str(FIXTURES / "fork_matching.json")])
    assert code == 0
    assert data["is_minimum"] is False
    assert sorted(data["witness"]["smaller_cover"]) == ["b1", "c1"]


def test_classify_rejects_non_maximal(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run(["classify", "--graph", FORK, "--matching", str(empty)]) == 1
    capsys.readouterr()


def test_classify_proves_a_ladder_with_8192_paths_minimum(tmp_path, capsys):
    g, m = ladder(11)  # 8192 augmenting paths, two of them disjoint
    graph, matching = tmp_path / "g.json", tmp_path / "m.json"
    graph.write_text(json.dumps(graph_to_json_dict(g)))
    matching.write_text(json.dumps(matching_to_json(m)))
    code, data = run_json(capsys, ["classify", "--graph", str(graph),
                                   "--matching", str(matching)])
    assert code == 0
    assert data["is_minimum"] is True
    assert [(p[0], len(p)) for p in data["witness"]["augmenting_paths"]] \
        == [("x0", 24), ("y0", 24)]


def test_starstud_output(capsys):
    code, data = run_json(capsys, ["starstud", "--graph", P4])
    assert code == 0
    g = data["graph"]
    assert len(g["left"]) + len(g["right"]) == 20
    assert len(graph_from_json_dict(g).vertices) == 20
    assert data["attachment"]["2"] == ["2*c", "2*l1", "2*l2", "2*l3"]


def test_enumerate_min_covers(capsys):
    code, data = run_json(capsys, [
        "enumerate", "--graph", P4, "--oracle", "min-covers"])
    assert code == 0
    assert sorted(map(sorted, data["minimum_covers"])) == \
        [["1", "3"], ["2", "3"], ["2", "4"]]


def test_enumerate_hall(capsys):
    code, data = run_json(capsys, [
        "enumerate", "--graph", FORK, "--oracle", "hall"])
    assert code == 0
    assert data["left"] is False   # {a1, a2} squeezes into {b1}
    assert data["right"] is False  # {d1, d2, d3} squeezes into {c1}


@pytest.mark.parametrize("oracle", ["matchings", "min-covers",
                                    "maximal-matchings", "hall"])
def test_enumerate_budget_exceeded(oracle, capsys):
    assert run(["enumerate", "--graph", FORK, "--oracle", oracle,
                "--max-vertices", "2"]) == 1
    assert "7 vertices exceeds budget 2" in capsys.readouterr().err


def test_enumerate_refuses_the_matchings_of_k88(tmp_path, capsys):
    # 16 vertices pass the default vertex budget; 1,441,729 matchings
    # exceed the default subset budget
    k88 = tmp_path / "k88.json"
    k88.write_text(json.dumps(graph_to_json_dict(build_graph(
        8, 8, [(i, j) for i in range(8) for j in range(8)]))))
    assert run(["enumerate", "--graph", str(k88), "--oracle",
                "matchings"]) == 1
    assert "matching enumeration exceeded budget" in capsys.readouterr().err


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = run(["experiment", "--nl", "4", "--nr", "4", "--p", "0.5",
                "--trials", "25", "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "hit_rate=" in captured.err
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "seed"
    assert len(rows) == 26


def test_experiment_writes_csv_to_stdout(tmp_path, capsys):
    # the csv module ends rows in \r\n, so the rows are parsed, not
    # compared as text; they are the rows the same run writes to a file
    argv = ["experiment", "--nl", "4", "--nr", "4", "--p", "0.5",
            "--trials", "25", "--seed", "5"]
    assert run(argv + ["--out", "-"]) == 0
    captured = capsys.readouterr()
    assert "hit_rate=" in captured.err
    rows = list(csv.reader(io.StringIO(captured.out)))
    out = tmp_path / "trials.csv"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    with out.open() as fh:
        assert rows == list(csv.reader(fh))
    assert rows[0][0] == "seed" and len(rows) == 26


def test_corpus_verify_rejects_oversized_requests(capsys):
    assert run(["corpus-verify", "--max-vertices", "40"]) == 1
    assert "error:" in capsys.readouterr().err
    assert run(["corpus-verify", "--max-vertices", "12"]) == 1
    assert "error:" in capsys.readouterr().err


def test_the_module_entry_point_exits_with_the_run_code():
    done = subprocess.run([sys.executable, "-m", "konigmatch.cli",
                           "corpus-verify", "--max-vertices", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "error:" in done.stderr and done.stdout == ""


@pytest.mark.parametrize("jobs", ["0", "-1", str(available_cpus() + 1)])
def test_corpus_verify_rejects_a_bad_job_count_before_forking(monkeypatch,
                                                              capsys, jobs):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["corpus-verify", "--max-vertices", "6", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_corpus_verify_prints_the_same_for_any_job_count(monkeypatch, capsys):
    monkeypatch.setattr(cli, "available_cpus", lambda: 2)
    printed = []
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
        assert run(["corpus-verify", "--max-vertices", "6", *jobs]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]
    assert printed[0].count("[ok]") == 9


def test_corpus_verify_small(capsys):
    assert run(["corpus-verify", "--max-vertices", "4"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


def test_missing_file_is_an_input_error(capsys):
    assert run(["match", "--graph", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_non_bipartite_input_is_an_input_error(capsys):
    assert run(["match", "--graph", str(FIXTURES / "triangle.edges")]) == 2
    capsys.readouterr()


def test_unhashable_label_is_an_input_error(tmp_path, capsys):
    matching = tmp_path / "matching.json"
    matching.write_text(json.dumps([[["b1"], "c1"]]))
    assert run(["cover", "--graph", FORK, "--matching", str(matching)]) == 2
    assert "no vertex labeled" in capsys.readouterr().err


def test_importing_the_cli_does_not_load_numpy():
    # the package is stdlib-only: neither the CLI nor the corpus loads numpy
    code = ("import sys, konigmatch.cli, konigmatch.corpus; "
            "konigmatch.corpus.cached_corpus(6); print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


DEEP = "[" * 100_000 + "]" * 100_000
EXPERIMENT = ["experiment", "--nl", "4", "--nr", "4", "--seed", "1"]


@pytest.mark.parametrize("argv, content", [
    pytest.param(["match", "--graph"], '{"left": [["a"]], "right": ["b"], '
                 '"edges": [[["a"], "b"]]}', id="list-label"),
    pytest.param(["match", "--graph"], '{"left": ["a"], "right": ["b"], '
                 '"edges": [[["a"], "b"]]}', id="list-endpoint"),
    pytest.param(["match", "--graph"], '{"left": ["a"], "right": ["b"], '
                 '"edges": [["a", "b", "a"]]}', id="three-entry-edge"),
    pytest.param(["match", "--graph"], '{"left": ["a"], "right": ["b"], '
                 '"edges": [["a"]]}', id="one-entry-edge"),
    pytest.param(["match", "--graph"], '{"left": ["a"], "right": ["b"], '
                 '"edges": ["ab"]}', id="string-edge"),
    pytest.param(["match", "--graph"], '{"left": ["a"], "right": ["b"], '
                 '"edges": {"ab": 1}}', id="object-edges"),
    pytest.param(["match", "--graph"], '{"left": "a", "right": "b", '
                 '"edges": [["a", "b"]]}', id="string-sides"),
    pytest.param(["match", "--graph"], b"\xff\xfe a b\n", id="not-utf8"),
    # JSON parsers that follow RFC 8259 cannot read these labels back
    pytest.param(["match", "--graph"], '{"left": [NaN, 2], "right": [1], '
                 '"edges": [[NaN, 1], [2, 1]]}', id="nan-label"),
    pytest.param(["match", "--graph"], '{"left": [2], "right": [1, Infinity], '
                 '"edges": [[2, 1], [2, Infinity]]}', id="infinity-label"),
    pytest.param(["match", "--graph"], DEEP, id="deep-graph"),
    pytest.param(["cover", "--graph", FORK, "--matching"], DEEP,
                 id="deep-matching"),
    pytest.param(["reverse", "--graph", FORK, "--cover"], b"[\xff]",
                 id="not-utf8-cover"),
    pytest.param(["starstud", "--graph"], '{"left": [1], "right": ["b"], '
                 '"edges": [[1, "b"]]}', id="mixed-labels"),
    # a star label would repeat a base label, or mix strings and numbers
    pytest.param(["starstud", "--graph"], '{"left": ["a", "a*c"], '
                 '"right": ["b"], "edges": [["a", "b"], ["a*c", "b"]]}',
                 id="starstud-label-collision"),
    pytest.param(["starstud", "--graph"], '{"left": [1], "right": [2], '
                 '"edges": [[1, 2]]}', id="starstud-numeric-labels"),
    pytest.param(EXPERIMENT + ["--p", "0.5", "--trials", "0"], None,
                 id="trials-0"),
    pytest.param(EXPERIMENT + ["--p", "2", "--trials", "5"], None, id="p-2"),
    pytest.param(["experiment", "--nl", "0", "--nr", "4", "--p", "0.5",
                  "--trials", "5"], None, id="nl-0"),
    # refused when the config is built, before any edge is drawn
    pytest.param(["experiment", "--nl", "100000", "--nr", "100000",
                  "--p", "0.5", "--trials", "1"], None, id="oversized"),
    # bad numbers: a corpus below two vertices checks nothing
    pytest.param(["corpus-verify", "--max-vertices", "1"], None,
                 id="corpus-1"),
    pytest.param(["corpus-verify", "--max-vertices", "-3"], None,
                 id="corpus-negative"),
    pytest.param(["enumerate", "--graph", P4, "--oracle", "matchings",
                  "--max-vertices", "-1"], None, id="enumerate-negative"),
])
def test_bad_input_exits_2(argv, content, tmp_path, capsys):
    if content is not None:
        path = tmp_path / "input"
        path.write_bytes(content if isinstance(content, bytes)
                         else content.encode())
        argv = argv + [str(path)]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_experiment_over_the_work_budget_exits_1(monkeypatch, tmp_path,
                                                    capsys):
    # refused when the config is built: no graph is drawn and the output
    # file is never opened; p = 0 draws as many numbers as any other p
    monkeypatch.setattr("konigmatch.experiments.random_bipartite",
                        lambda cfg, rng: pytest.fail("a graph was drawn"))
    out = tmp_path / "exp.csv"
    for nl, p, trials in (("1000", "1", "6"), ("20", "0", "1000000000000")):
        assert run(["experiment", "--nl", nl, "--nr", nl, "--p", p,
                    "--trials", trials, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "5000000" in line


def test_the_experiment_help_names_the_work_budget(capsys):
    with pytest.raises(SystemExit):
        run(["experiment", "--help"])
    assert "5,000,000" in " ".join(capsys.readouterr().out.split())


def _path_file(tmp_path, vertices, fmt):
    """A graph file holding a path on ``vertices`` vertices."""
    names = [f"p{i}" for i in range(vertices)]
    pairs = list(zip(names, names[1:]))
    path = tmp_path / f"path.{fmt}"
    if fmt == "json":
        path.write_text(json.dumps({
            "left": names[0::2], "right": names[1::2],
            "edges": [[a, b] if t % 2 == 0 else [b, a]
                      for t, (a, b) in enumerate(pairs)]}), encoding="utf-8")
    else:
        path.write_text("".join(f"{a} {b}\n" for a, b in pairs),
                        encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("fmt", ["json", "txt"])
def test_a_graph_file_over_the_vertex_budget_exits_1(fmt, tmp_path, capsys):
    # a path one vertex over the budget: every command that reads a graph
    # refuses it when the graph is built, before its masks are
    graph = _path_file(tmp_path, MAX_VERTICES + 1, fmt)
    for argv in (["match", "--graph", graph],
                 ["cover", "--graph", graph, "--matching", "unread.json"],
                 ["reverse", "--graph", graph, "--cover", "unread.json"],
                 ["classify", "--graph", graph, "--matching", "unread.json"],
                 ["starstud", "--graph", graph],
                 ["enumerate", "--graph", graph, "--oracle", "hall"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "20,000 vertices" in line


def test_a_graph_file_at_the_vertex_budget_loads(tmp_path):
    g = cli.gio.load_graph(_path_file(tmp_path, MAX_VERTICES, "json"))
    assert len(g.vertices) == MAX_VERTICES and len(g.edges) == MAX_VERTICES - 1


def test_a_studded_graph_over_the_vertex_budget_exits_1(tmp_path, capsys):
    # the studded graph has five times the base's vertices
    graph = _path_file(tmp_path, MAX_VERTICES // 5 + 1, "json")
    assert run(["starstud", "--graph", graph]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "20,000 vertices" in captured.err


def test_an_experiment_over_the_vertex_budget_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("konigmatch.experiments.random_bipartite",
                        lambda cfg, rng: pytest.fail("a graph was drawn"))
    assert run(["experiment", "--nl", "1", "--nr", str(MAX_VERTICES),
                "--p", "0.5", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "20000 vertices" in captured.err


@pytest.mark.parametrize("command", ["match", "cover", "reverse", "classify",
                                     "starstud", "enumerate", "experiment"])
def test_the_help_names_the_vertex_budget(command, capsys):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert "20,000" in " ".join(capsys.readouterr().out.split())


def test_a_graph_with_a_negative_vertex_id_exits_2(monkeypatch, capsys):
    # the loaders number vertices densely from 0, so a negative id reaches
    # the CLI only from a graph built directly
    monkeypatch.setattr(cli.gio, "load_graph",
                        lambda path: BipartiteGraph({-1}, {0}, [(-1, 0)]))
    assert run(["match", "--graph", "unused.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: vertex id -1 is not a non-negative "
                            "integer\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="no digit limit on integer conversion")
@pytest.mark.parametrize("argv, document", [
    (["match", "--graph"], '{{"left": [{}], "right": ["b"], "edges": []}}'),
    (["cover", "--graph", FORK, "--matching"], '[[{}, "c1"]]'),
    (["reverse", "--graph", FORK, "--cover"], "[{}]"),
], ids=["graph", "matching", "cover"])
def test_an_integer_past_the_digit_limit_exits_2(argv, document, tmp_path,
                                                 capsys):
    path = tmp_path / "input.json"
    path.write_text(document.format("9" * (sys.get_int_max_str_digits() + 1)))
    assert run(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# numbers as well as strings, so some well-formed graphs mix the two
LABELS = st.sampled_from(["a1", "a2", "b1", "c1", "d1", "1", "2", "3", "4",
                          1, 2, 3, 4])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=3) | LABELS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
LABEL_LISTS = st.lists(LABELS | JSON, max_size=5)


@st.composite
def well_formed_graphs(draw):
    labels = draw(st.lists(LABELS, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(1, len(labels) - 1))
    left, right = labels[:cut], labels[cut:]
    edges = draw(st.lists(st.tuples(st.sampled_from(left),
                                    st.sampled_from(right)).map(list),
                          max_size=6))
    return {"left": left, "right": right, "edges": edges}


GRAPHS = well_formed_graphs() | st.fixed_dictionaries({
    "left": LABEL_LISTS, "right": LABEL_LISTS,
    "edges": st.lists(st.lists(LABELS | JSON, max_size=3), max_size=6),
}) | JSON
PAIRS = st.lists(st.lists(LABELS | JSON, max_size=3) | JSON, max_size=4)


@settings(max_examples=150, deadline=None)
@given(graph=GRAPHS | st.binary(max_size=40),
       doc=PAIRS | st.binary(max_size=20),
       command=st.sampled_from(["match", "maximal", "cover", "reverse",
                                "classify", "starstud", "enumerate"]),
       known_graph=st.booleans())
def test_malformed_documents_never_raise(tmp_path_factory, graph, doc,
                                         command, known_graph):
    workdir = tmp_path_factory.mktemp("fuzz")
    graph_file = workdir / "graph.json"
    doc_file = workdir / "doc.json"
    for path, data in ((graph_file, graph), (doc_file, doc)):
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(json.dumps(data))
    # half the documents go with a valid graph, so their labels resolve
    argv = ["--graph", FORK if known_graph else str(graph_file)]
    argv = {
        "match": ["match", *argv],
        "maximal": ["match", *argv, "--maximal", "--seed", "3"],
        "cover": ["cover", *argv, "--matching", str(doc_file)],
        "reverse": ["reverse", *argv, "--cover", str(doc_file)],
        "classify": ["classify", *argv, "--matching", str(doc_file)],
        "starstud": ["starstud", *argv],
        "enumerate": ["enumerate", *argv, "--oracle", "min-covers"],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)
