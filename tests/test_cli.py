import csv
import json
import subprocess
import sys

import pytest

from konigmatch.cli import run

from conftest import FIXTURES

P4 = str(FIXTURES / "p4.json")
FORK = str(FIXTURES / "fork.json")


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
    assert data["witness"]["augmenting_path"] == ["a1", "b1", "c1", "d1"]
    assert sorted(data["witness"]["stranded_unsaturated"]) == \
        ["d1", "d2", "d3"]


def test_classify_rejects_non_maximal(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run(["classify", "--graph", FORK, "--matching", str(empty)]) == 1
    capsys.readouterr()


def test_starstud_output(capsys):
    code, data = run_json(capsys, ["starstud", "--graph", P4])
    assert code == 0
    g = data["graph"]
    assert len(g["left"]) + len(g["right"]) == 20
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


def test_enumerate_budget_exceeded(capsys):
    assert run(["enumerate", "--graph", P4, "--oracle", "matchings",
                "--max-vertices", "2"]) == 1
    capsys.readouterr()


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = run(["experiment", "--nl", "4", "--nr", "4", "--p", "0.5",
                "--trials", "25", "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "hit_rate=" in captured.err
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "seed"
    assert len(rows) == 26


def test_corpus_verify_rejects_oversized_requests(capsys):
    assert run(["corpus-verify", "--max-vertices", "40"]) == 1
    assert "error:" in capsys.readouterr().err


def test_corpus_verify_small(capsys):
    assert run(["corpus-verify", "--max-vertices", "4", "--no-stars"]) == 0
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
    # numpy is needed only to generate the corpus
    code = "import sys, konigmatch.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"
