import json

import pytest

from stableseq import exact
from stableseq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--graph", "qd:4",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"][0] == "1"
    assert data["counts"][1] == "16"
    assert data["total"] == "743"
    assert data["alpha"] == 8


def test_count_csv_and_plain(capsys):
    code, out, _ = run_cli(capsys, "count", "--graph", "cycle:6",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,count"
    code, out, _ = run_cli(capsys, "count", "--graph", "cycle:6")
    assert code == 0
    assert "alpha = 3" in out


def test_check_aems_unimodal(capsys):
    code, out, _ = run_cli(capsys, "check", "--graph", "aems",
                           "--property", "unimodal", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witness"] == [1, 2]


def test_check_final_third_and_bgs(capsys):
    code, out, _ = run_cli(capsys, "check", "--graph", "qd:3",
                           "--property", "final-third", "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = run_cli(capsys, "check", "--graph", "qd:4",
                           "--property", "bgs", "--beta", "0",
                           "--gamma", "1/5", "--step", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_bgs_rejects_unbalanced(capsys):
    code, _out, err = run_cli(capsys, "check", "--graph", "aems",
                              "--property", "bgs")
    assert code == 2
    assert "rejected" in err


def test_bounds_verb(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--graph", "qd:3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert len(data["rows"]) == 5
    assert len(data["partition_bounds"]) == 5
    code, out, _ = run_cli(capsys, "bounds", "--graph", "qd:3",
                           "--lam", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,lower_log2,upper_log2,exact_log2,tags"


def test_bounds_rejects_irregular(capsys):
    code, _out, err = run_cli(capsys, "bounds", "--graph", "knn:2,3")
    assert code == 2
    assert "regular" in err


def test_cube_structure_verb(capsys):
    code, out, _ = run_cli(capsys, "cube-structure", "--d", "4",
                           "--set", "0,15", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 2 and data["comps"] == 2
    assert data["components"] == [[0], [15]]


def test_cube_window_verb(capsys):
    code, out, _ = run_cli(capsys, "cube-window", "--d", "5", "--t", "8",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d,t,range,central_log2")
    assert "below" in lines[1]
    code, out, _ = run_cli(capsys, "cube-window", "--d", "5", "--t", "8")
    assert code == 0
    assert "not applicable" in out


def test_transition_verb(capsys):
    code, out, _ = run_cli(capsys, "transition", "--d", "4", "--t", "4",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["g"] == "0/1"
    code, _out, err = run_cli(capsys, "transition", "--d", "9")
    assert code == 2


def test_percolate_experiment(capsys):
    code, out, _ = run_cli(capsys, "percolate", "--base", "knn:6,6",
                           "--p", "1/2", "--seed", "5", "--trials", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 3
    assert len(data["per_trial"]) == 3


def test_percolate_sample_emission(capsys):
    code, out, _ = run_cli(capsys, "percolate", "--base", "cycle:8",
                           "--p", "1", "--seed", "1", "--trials", "1")
    assert code == 0
    assert out.splitlines()[0] == "8 8"


def test_byte_stability(capsys):
    runs = []
    for _ in range(2):
        _code, out, _ = run_cli(capsys, "percolate", "--base", "knn:6,6",
                                "--p", "1/3", "--seed", "77", "--trials", "4",
                                "--format", "json")
        runs.append(out)
    assert runs[0] == runs[1]
    golden_code, golden, _ = run_cli(capsys, "count", "--graph", "qd:3",
                                     "--format", "json")
    assert golden_code == 0
    assert golden == ('{"alpha": 4, "counts": ["1", "8", "16", "8", "2"], '
                      '"graph": "qd:3", "total": "35"}\n')


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "small")
    assert code == 0
    assert "0 failure(s)" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-verb"])
    assert exc.value.code == 2
    code, _out, err = run_cli(capsys, "count", "--graph", "torus:9")
    assert code == 2
    assert "error" in err


def test_precision_flag(capsys):
    code, out, _ = run_cli(capsys, "--precision", "192", "count",
                           "--graph", "qd:2", "--format", "json")
    assert code == 0
    assert json.loads(out)["total"] == "7"
    import stableseq.numerics as num
    num.set_precision()  # restore the default for later tests


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["count", "--graph", "qd:3", "--backend", "general"],
                 ["bounds", "--graph", "qd:3", "--backend", "auto"],
                 ["check", "--graph", "qd:3", "--property", "unimodal",
                  "--backend", "bipartite"],
                 ["--workers", "2", "count", "--graph", "qd:3"],
                 ["percolate", "--base", "knn:4,4", "--p", "1/2",
                  "--s-rule", "default"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_missing_graph_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "count", "--graph",
                             f"file:{tmp_path / 'nonexistent'}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read graph file")


def test_duplicate_edge_file_exits_2(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 3\n0 1\n1 0\n1 2\n")
    code, _out, err = run_cli(capsys, "count", "--graph", f"file:{path}")
    assert code == 2
    assert "line 3: duplicate" in err


def test_count_over_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 1000)
    code, out, err = run_cli(capsys, "count", "--graph", "qd:5",
                             "--format", "json")
    assert code == 2
    assert out == ""
    assert "counting budget of 1000 memo words exceeded" in err
    assert "branch nodes" in err and "memo entries" in err


def test_long_path_counts_or_exits_2(capsys):
    code, out, err = run_cli(capsys, "count", "--graph", "path:5000",
                             "--format", "json")
    if code == 2:
        assert err.startswith("error: counting budget")
        return
    assert code == 0
    a, b = 0, 1
    for _ in range(5002):
        a, b = b, a + b
    assert json.loads(out)["total"] == str(a)
