import contextlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import stableseq
from stableseq import cli, cube, cube_estimates, exact, numerics
from stableseq.cli import build_parser, main


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
    code, out, err = run_cli(capsys, "check", "--graph", "aems",
                             "--property", "bgs")
    assert (code, out) == (2, "")
    assert err == ("error: property check rejected: sequence alpha = 3 "
                   "differs from n = 24; the property is defined for balanced "
                   "bipartite graphs with full-range sequences\n")


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
    code, out, err = run_cli(capsys, "bounds", "--graph", "knn:2,3")
    assert (code, out) == (2, "")
    assert err == "error: bounds verb needs a regular bipartite graph\n"


@pytest.mark.parametrize("step", ["-3", "0"])
@pytest.mark.parametrize("beta_gamma", ["0", "9/10"])
def test_check_bgs_rejects_step_below_one(capsys, beta_gamma, step):
    # at beta = gamma = 9/10 both intervals of Q_3 are empty, so no s-step
    # check runs on them; the step is refused all the same
    code, out, err = run_cli(capsys, "check", "--graph", "qd:3",
                             "--property", "bgs", "--beta", beta_gamma,
                             "--gamma", beta_gamma, "--step", step)
    assert (code, out, err) == (
        2, "", "error: property check rejected: step s must be >= 1\n")


def test_cube_structure_verb(capsys):
    code, out, _ = run_cli(capsys, "cube-structure", "--d", "4",
                           "--set", "0,15", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 2 and data["comps"] == 2
    assert data["components"] == [[0], [15]]


def test_cube_structure_refuses_d1(capsys):
    code, out, err = run_cli(capsys, "cube-structure", "--d", "1",
                             "--set", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: dimension d = 1 outside [2, ")


@pytest.mark.parametrize("argv, payload", [
    (["--d", "4", "--set", "0,15"],
     '{"closure": 8, "components": [[0], [15]], "comps": 2, "d": 4, '
     '"max_comp": 1, "nbhd": 8, "set": [0, 15], "size": 2, "small": false}'),
    (["--d", "5", "--set", "24,0,5,3"],
     '{"closure": 6, "components": [[0, 3, 5, 24]], "comps": 1, "d": 5, '
     '"max_comp": 4, "nbhd": 13, "set": [0, 3, 5, 24], "size": 4, '
     '"small": true}'),
    (["--d", "3", "--set", "0,1"],   # mixed parity: no 2-components
     '{"closure": 0, "components": null, "comps": null, "d": 3, '
     '"max_comp": null, "nbhd": 4, "set": [0, 1], "size": 2, "small": true}'),
    (["--d", "3"],
     '{"closure": 0, "components": [], "comps": 0, "d": 3, "max_comp": 0, '
     '"nbhd": 0, "set": [], "size": 0, "small": true}'),
])
def test_cube_structure_json_pinned(capsys, argv, payload):
    code, out, err = run_cli(capsys, "cube-structure", *argv,
                             "--format", "json")
    assert (code, out, err) == (0, payload + "\n", "")


@pytest.mark.parametrize("vertices, message", [
    ("0,0", "vertex 0 is listed twice"),
    ("999", "vertex 999 is not a vertex of Q_3"),
    ("8", "vertex 8 is not a vertex of Q_3"),
    ("-1", "vertex -1 is not a vertex of Q_3"),
])
def test_cube_structure_rejects_bad_sets(capsys, vertices, message):
    code, out, err = run_cli(capsys, "cube-structure", "--d", "3",
                             "--set", vertices)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cube_structure_computes_once(capsys, monkeypatch):
    # one structure_stats call, and the one two_components call inside it,
    # which also gives the component lists
    calls = []
    for name in ("structure_stats", "two_components"):
        fn = getattr(cube, name)
        monkeypatch.setattr(cube, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    code, _out, _err = run_cli(capsys, "cube-structure", "--d", "4",
                               "--set", "0,3,5", "--format", "json")
    assert code == 0
    assert sorted(calls) == ["structure_stats", "two_components"]


# cube-window --format json rows as printed when rationals were converted
# with mp.mpf(p) / q directly; any drift in the printed digits fails.  Each
# row: (c, d, t as a permille of 2^(d-1), range, f_cut, central_log2, e1, e2,
# e1_reason, e2_reason).
PINNED_WINDOWS = [
    ("1", 96, 100, "below", 37841861952528330664674435796,
     "1.85790866302686985e+28", None, None,
     "f = 37841861952528330664674435796 not below t/2",
     "d f = 3632818747442719743808745836416 above 2^(d-2)"),
    ("1", 96, 600, "range123", 96, "3.84633157453880264e+28", "1.0", "1.0",
     None, None),
    ("1/4", 96, 400, "range4", 2827241311570, "3.84633157453880264e+28",
     "0.998487801319862425", "6.42114295626487041", None, None),
    ("1", 144, 500, "range123", 106183, "1.11503725992653116e+43", "1.0",
     "1.0", None, None),
    ("1", 144, 900, "range123", 144, "5.22947561593409135e+42", None, "1.0",
     "t above (3/4) 2^(d-1); trivial bound regime", None),
    ("1/4", 144, 380, "range4", 1845733892487344781,
     "1.06825255135768594e+43", "0.999997587952097368",
     "1.00635550725099434", None, None),
    ("1", 192, 450, "range123", 7696617275931, "3.11587312398721795e+57",
     "1.0", "1.0", None, None),
    ("1", 192, 800, "range123", 192, "2.26580804862093127e+57", None, "1.0",
     "t above (3/4) 2^(d-1); trivial bound regime", None),
    ("1/4", 192, 340, "range4", 7730085358993121685469570668,
     "2.90259054895213476e+57", "0.845362839254529592",
     "6.42495432801528483e+304", None, None),
]


@pytest.mark.parametrize("row", PINNED_WINDOWS,
                         ids=[f"c{r[0]}-d{r[1]}-t{r[2]}" for r in PINNED_WINDOWS])
def test_cube_window_json_pinned(capsys, row):
    c, d, permille, tag, fc, central, e1, e2, reason1, reason2 = row
    half = 1 << (d - 1)
    t = half * permille // 1000
    code, out, _ = run_cli(capsys, "--c-constant", c, "cube-window",
                           "--d", str(d), "--t", str(t), "--format", "json")
    assert code == 0
    lam = Fraction(t, half - t)
    assert json.loads(out) == {"rows": [{
        "d": d, "t": t, "lambda": f"{lam.numerator}/{lam.denominator}",
        "central_log2": central, "f_cut": fc, "e1": e1, "e1_reason": reason1,
        "e2": e2, "e2_reason": reason2, "range": tag}]}


# central_log2 where the loggammas of log2 C(2^(d-1), t) cancel most of
# their bits (t or 2^(d-1) - t small); each value equals a 4000-bit run.
@pytest.mark.parametrize("d, t, central", [
    (128, 1, "129.442695040888963"),
    (2000, 1, "2001.44269504088896"),
    (2000, 3, "5999.74312262194573"),
    (2000, (1 << 1999) - 1, "2000.0"),
])
def test_cube_window_central_keeps_its_digits(capsys, d, t, central):
    code, out, _ = run_cli(capsys, "cube-window", "--d", str(d), "--t",
                           str(t), "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["central_log2"] == central


def test_undecided_comparison_exits_2(capsys, monkeypatch):
    def undecided(value, what, arg):
        raise numerics.UndecidedComparison(f"{what.format(arg)} undecided at "
                                           "4096 bits")
    monkeypatch.setattr(cube_estimates, "certified_ceil", undecided)
    code, out, err = run_cli(capsys, "cube-window", "--d", "8", "--t", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ceil(")
    assert "undecided at 4096 bits" in err


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


def test_transition_verb(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "transition", "--d", "4", "--t", "4",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["g"] == "0/1"
    # Q_9 is far over the work budget; a lower budget makes it fail fast
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 1000)
    code, _out, err = run_cli(capsys, "transition", "--d", "9")
    assert code == 2
    assert err.startswith("error: counting budget of 1000 memo words")


def test_transition_budget_is_the_only_limit(capsys, monkeypatch):
    # d = 6 is counted (Q_6 is within the default budget, in seconds);
    # below its needs the budget error is the refusal
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 1000)
    code, out, err = run_cli(capsys, "transition", "--d", "6", "--t", "32")
    assert (code, out) == (2, "")
    assert err.startswith("error: counting budget of 1000 memo words "
                          "exceeded after ")


@pytest.mark.parametrize("argv, message", [
    (["transition", "--d", "0"], "dimension d = 0 outside [1, 20]"),
    (["transition", "--d", "-2"], "dimension d = -2 outside [1, 20]"),
    (["transition", "--d", "21"], "dimension d = 21 outside [1, 20]"),
    (["transition", "--d", "64"], "dimension d = 64 outside [1, 20]"),
    (["cube-window", "--d", "0", "--t", "0"],
     "dimension d = 0 outside [1, 4000]"),
    (["cube-structure", "--d", "0"], "dimension d = 0 outside [2, 20]"),
    (["cube-structure", "--d", "1", "--set", "0"],
     "dimension d = 1 outside [2, 20]"),
    (["transition", "--d", "2", "--t", "5"], "t = 5 outside [0, 2^(d-1)]"),
    (["cube-window", "--d", "5", "--t", "17"], "t outside [0, 2^(d-1)]"),
    (["cube-window", "--d", "5", "--t", "-1"], "t outside [0, 2^(d-1)]"),
])
def test_cube_verbs_reject_bad_dimension_and_t(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_percolate_experiment(capsys):
    code, out, _ = run_cli(capsys, "percolate", "--base", "knn:6,6",
                           "--p", "1/2", "--seed", "5", "--trials", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["trials"] == 3
    assert len(data["per_trial"]) == 3


def test_percolate_reads_the_base_as_a_graph_spec(capsys):
    # the family name is case-insensitive, as for every other verb
    argv = ("percolate", "--p", "1/2", "--seed", "3", "--trials", "2",
            "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--base", "KNN:4,4")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, "--base", "knn:4,4")[1]
    assert json.loads(out)["base"] == "knn:4,4"


def test_percolate_runs_the_experiment_on_any_regular_bipartite_base(capsys):
    code, out, err = run_cli(capsys, "percolate", "--base", "qd:4", "--p",
                             "1/2", "--seed", "2", "--trials", "3",
                             "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["base"], data["d_prime"], data["trials"]) == ("qd:4", "2/1", 3)
    assert len(data["per_trial"]) == 3


@pytest.mark.parametrize("argv, message", [
    (["--base", "knn:4,5"], "experiment base must be regular of degree >= 1"),
    (["--base", "knn:4"], "malformed graph spec 'knn:4': not enough values "
                          "to unpack (expected 2, got 1)"),
    (["--base", "knn:4,4", "--epsilon", "0"], "epsilon = 0 outside (0, 1)"),
    (["--base", "knn:4,4", "--epsilon", "1"], "epsilon = 1 outside (0, 1)"),
    (["--base", "path:4"], "experiment base must be regular of degree >= 1"),
    (["--base", "knn:0,0"], "experiment base must be regular of degree >= 1"),
    (["--base", "knn:2,0"], "experiment base must be regular of degree >= 1"),
    (["--base", "cycle:5"], "graph is not bipartite (odd cycle "
                            "[2, 1, 0, 4, 3])"),
])
def test_percolate_refusals_are_typed_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "percolate", "--p", "1/2", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("suite", ["small", "full"])
def test_verify_suite(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "0 failure(s)" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_counts_each_graph_once(capsys, monkeypatch):
    import stableseq.verify
    counted = []
    count = stableseq.verify.count_by_size
    monkeypatch.setattr(stableseq.verify, "count_by_size",
                        lambda g: counted.append(g) or count(g))
    code, out, _ = run_cli(capsys, "verify", "--suite", "full")
    assert code == 0 and "0 failure(s)" in out
    # the claw composite, the 10 corpus graphs, Q_4, knn:5,5 and Q_5
    assert len(counted) == len(set(counted)) == 14


def test_verify_json_matches_plain(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "small")
    plain = [(line[7:], line[1:5]) for line in out.splitlines()
             if line.startswith("[")]
    json_code, json_out, _ = run_cli(capsys, "verify", "--suite", "small",
                                     "--format", "json")
    assert json_code == code == 0
    data = json.loads(json_out)
    assert data["suite"] == "small" and data["failures"] == 0
    assert [(c["name"] + (f" ({c['detail']})" if c["detail"] else ""),
             c["verdict"]) for c in data["checks"]] == plain
    assert all(c["seconds"] >= 0 for c in data["checks"])


def test_verify_formats_report_failures(capsys, monkeypatch):
    import stableseq.verify
    monkeypatch.setattr(stableseq.verify, "run_suite", lambda suite: iter(
        [("good", True, ""), ("bad", False, "got 3, want 4")]))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert out == "[PASS] good\n[FAIL] bad (got 3, want 4)\n1 failure(s)\n"
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["failures"] == 1
    assert [(c["name"], c["verdict"], c["detail"]) for c in data["checks"]] \
        == [("good", "PASS", ""), ("bad", "FAIL", "got 3, want 4")]
    code, out, _ = run_cli(capsys, "verify", "--format", "csv")
    assert code == 1
    rows = out.splitlines()
    assert rows[0] == "name,verdict,detail,seconds"
    assert [r.rsplit(",", 1)[0] for r in rows[1:]] == \
        ["good,PASS,", "bad,FAIL,\"got 3, want 4\""]


WINDOW_T = str((1 << 94) * 6 // 5)     # 0.6 * 2^95: range123 at d = 96

# Plain and CSV stdout of the verbs on small inputs, byte for byte; every
# CSV line ends in "\n".
PINNED_STDOUT = [
    (["count", "--graph", "cycle:6", "--format", "csv"],
     "t,count\n0,1\n1,6\n2,9\n3,2\n"),
    (["count", "--graph", "cycle:6"],
     "graph cycle:6: alpha = 3, total = 18\n"
     "  i_0 = 1\n  i_1 = 6\n  i_2 = 9\n  i_3 = 2\n"),
    (["bounds", "--graph", "qd:2", "--format", "csv"],
     "t,lower_log2,upper_log2,exact_log2,tags\n"
     "0,0.0,1.0,0.0,binomial-lower|entropy-upper\n"
     "1,1.0,3.0,2.0,binomial-lower|entropy-upper\n"
     "2,0.0,1.0,1.0,binomial-lower|entropy-upper\n"),
    (["bounds", "--graph", "qd:2"],
     "bound table for qd:2 (d = 2); violations: 0\n"),
    (["check", "--graph", "aems", "--property", "unimodal"],
     "aems: not unimodal, witness (1, 2)\n"),
    (["check", "--graph", "qd:3", "--property", "final-third"],
     "qd:3: final third decreasing\n"),
    (["check", "--graph", "qd:4", "--property", "bgs", "--gamma", "1/5"],
     "qd:4: holds for (beta=0, gamma=1/5, s=1)\n"
     "  increasing [0, 3] step 1: holds\n"
     "  decreasing [5, 8] step 1: holds\n"),
    (["transition", "--d", "3", "--format", "csv"],
     "d,t,g,ratio_log2,predicted_limit\n"
     "3,0,-3/2,-1.0,22988.9388943\n"
     "3,1,-3/4,0.0,9.40126763686\n"
     "3,2,0/1,0.415037499279,1.6487212707\n"
     "3,3,3/4,0.0,1.11802650289\n"
     "3,4,3/2,0.0,1.02520596532\n"),
    (["transition", "--d", "3", "--t", "2"],
     "d=3 t=2 g=0/1 ratio_log2=0.415037499279 predicted=1.6487212707\n"),
    (["cube-window", "--d", "96", "--t", WINDOW_T, "--t", "8",
      "--format", "csv"],
     "d,t,range,central_log2,e1_log2,e2_log2,e1_applicable,e2_applicable\n"
     f"96,{WINDOW_T},range123,3.84633157453880264e+28,-1.67817567326e-24,"
     "3.09321340095e-21,True,True\n"
     "96,8,below,757.242352308724428,,9.68761461514e-13,False,True\n"),
    (["cube-window", "--d", "96", "--t", WINDOW_T, "--t", "8"],
     f"d=96 t={WINDOW_T} [range123] central_log2 = 3.84633157454e+28; "
     "window [1.0, 1.0]\n"
     "d=96 t=8 [below] central_log2 = 757.242352309; window not applicable "
     "(f = 1698927 not below t/2); central value only\n"),
]


@pytest.mark.parametrize("argv, stdout", PINNED_STDOUT,
                         ids=[" ".join(a[:1] + a[-2:]) for a, _ in PINNED_STDOUT])
def test_plain_and_csv_stdout_pinned(capsys, argv, stdout):
    assert run_cli(capsys, *argv) == (0, stdout, "")


# JSON stdout byte for byte: Fractions as p/q, mpmath numbers to 18
# digits, keys sorted, one line.  qd:3 has a middle bound row that mirrors
# itself; crown:5 has odd n = 5, so every row t mirrors another row 5 - t,
# and its three activities reach all three branches of c_of_lambda.
PINNED_JSON = [
    (["bounds", "--graph", "qd:3"],
     '{"d": 3, "n": 4,'
     ' "partition_bounds": [{"almost_regular_log2": "11.9543790462161161",'
     ' "exact_value": "529/128", "lambda": "1/4",'
     ' "regular_log2": "2.62104571288278272"},'
     ' {"almost_regular_log2": "13.0065166695512914",'
     ' "exact_value": "81/8", "lambda": "1/2",'
     ' "regular_log2": "3.67318333621795806"},'
     ' {"almost_regular_log2": "14.6666666666666667",'
     ' "exact_value": "35", "lambda": "1",'
     ' "regular_log2": "5.33333333333333333"},'
     ' {"almost_regular_log2": "17.0065166695512914",'
     ' "exact_value": "177", "lambda": "2",'
     ' "regular_log2": "7.67318333621795806"},'
     ' {"almost_regular_log2": "19.9543790462161161",'
     ' "exact_value": "1313", "lambda": "4",'
     ' "regular_log2": "10.6210457128827827"}],'
     ' "rows": [{"exact_log2": "0.0", "lower_log2": "0.0", "t": 0,'
     ' "tags": ["binomial-lower", "entropy-upper"],'
     ' "upper_log2": "1.33333333333333333"}, {"exact_log2": "3.0",'
     ' "lower_log2": "2.0", "t": 1, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "4.57844583116986479"},'
     ' {"exact_log2": "4.0", "lower_log2": "2.58496250072115618", "t": 2,'
     ' "tags": ["binomial-lower", "entropy-upper"],'
     ' "upper_log2": "5.33333333333333333"}, {"exact_log2": "3.0",'
     ' "lower_log2": "2.0", "t": 3, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "4.57844583116986479"},'
     ' {"exact_log2": "1.0", "lower_log2": "0.0", "t": 4,'
     ' "tags": ["binomial-lower", "entropy-upper"],'
     ' "upper_log2": "1.33333333333333333"}], "violations": []}'),
    (["bounds", "--graph", "crown:5", "--lam", "1/200", "--lam", "1/3",
      "--lam", "200"],
     '{"d": 4, "n": 5, "partition_bounds": [{"almost_regular_log2":'
     ' "10.8497921209946804", "exact_value":'
     ' "168100401001/160000000000", "lambda": "1/200",'
     ' "regular_log2": "1.28597750702101959"},'
     ' {"almost_regular_log2": "12.0751874963942191", "exact_value":'
     ' "1940/243", "lambda": "1/3", "regular_log2":'
     ' "3.32518749639421909"}, {"almost_regular_log2":'
     ' "49.0690730698683038", "exact_value": "656161002001",'
     ' "lambda": "200", "regular_log2": "39.5052584558946431"}],'
     ' "rows": [{"exact_log2": "0.0", "lower_log2": "0.0", "t": 0,'
     ' "tags": ["binomial-lower", "entropy-upper"], "upper_log2":'
     ' "1.25"}, {"exact_log2": "3.32192809488736235", "lower_log2":'
     ' "2.32192809488736235", "t": 1, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "4.85964047443681174"},'
     ' {"exact_log2": "4.6438561897747247", "lower_log2":'
     ' "3.32192809488736235", "t": 2, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "6.10475297227334319"},'
     ' {"exact_log2": "4.32192809488736235", "lower_log2":'
     ' "3.32192809488736235", "t": 3, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "6.10475297227334319"},'
     ' {"exact_log2": "3.32192809488736235", "lower_log2":'
     ' "2.32192809488736235", "t": 4, "tags": ["binomial-lower",'
     ' "entropy-upper"], "upper_log2": "4.85964047443681174"},'
     ' {"exact_log2": "1.0", "lower_log2": "0.0", "t": 5, "tags":'
     ' ["binomial-lower", "entropy-upper"], "upper_log2": "1.25"}],'
     ' "violations": []}'),
    (["cube-window", "--d", "16", "--t", "1", "--t", "20000"],
     '{"rows": [{"central_log2": "17.4420347685705135", "d": 16,'
     ' "e1": null, "e1_reason": "f = 212269 not below t/2", "e2": null,'
     ' "e2_reason": "d f = 3396304 above 2^(d-2)", "f_cut": 212269,'
     ' "lambda": "1/32767", "range": "below", "t": 1},'
     ' {"central_log2": "31600.3362321753488", "d": 16, "e1": null,'
     ' "e1_reason": "f = 3078 above (2^(d-1) - t)/(2d)", "e2": null,'
     ' "e2_reason": "d f = 49248 above 2^(d-2)", "f_cut": 3078,'
     ' "lambda": "625/399", "range": "below", "t": 20000}]}'),
    (["percolate", "--base", "knn:4,4", "--p", "1/2", "--seed", "1",
      "--trials", "2"],
     '{"base": "knn:4,4", "d_prime": "2/1", "epsilon": "1/10",'
     ' "p": "1/2", "per_trial": [{"alpha": 4, "flagged": false,'
     ' "h_value": "3/4", "holds": true, "s_used": 11,'
     ' "stream_id": 12793040940332582595, "trial": 0}, {"alpha": 4,'
     ' "flagged": false, "h_value": "1/1", "holds": true, "s_used": 14,'
     ' "stream_id": 6301985355436268297, "trial": 1}], "seed": 1,'
     ' "success_rate": "1/1", "trials": 2}'),
    (["transition", "--d", "5"],
     '{"rows": [{"d": 5, "g": "-5/2", "predicted_limit":'
     ' "1.68852704093e+32", "ratio_log2": "-1.0", "t": 0}, {"d": 5, "g":'
     ' "-35/16", "predicted_limit": "1.77886086371e+17", "ratio_log2":'
     ' "0.0", "t": 1}, {"d": 5, "g": "-15/8", "predicted_limit":'
     ' "1711337388.01", "ratio_log2": "0.793549122533", "t": 2}, {"d":'
     ' 5, "g": "-25/16", "predicted_limit": "87548.4424161",'
     ' "ratio_log2": "1.36257007938", "t": 3}, {"d": 5, "g": "-5/4",'
     ' "predicted_limit": "441.972198312", "ratio_log2":'
     ' "1.69187770464", "t": 4}, {"d": 5, "g": "-15/16",'
     ' "predicted_limit": "26.0602081803", "ratio_log2":'
     ' "1.77297612993", "t": 5}, {"d": 5, "g": "-5/8",'
     ' "predicted_limit": "5.72688342993", "ratio_log2":'
     ' "1.61208967874", "t": 6}, {"d": 5, "g": "-5/16",'
     ' "predicted_limit": "2.54498047665", "ratio_log2":'
     ' "1.24697141788", "t": 7}, {"d": 5, "g": "0/1", "predicted_limit":'
     ' "1.6487212707", "ratio_log2": "0.781339332014", "t": 8}, {"d": 5,'
     ' "g": "5/16", "predicted_limit": "1.30686444449", "ratio_log2":'
     ' "0.387023123109", "t": 9}, {"d": 5, "g": "5/8",'
     ' "predicted_limit": "1.15402103801", "ratio_log2":'
     ' "0.164630701773", "t": 10}, {"d": 5, "g": "15/16",'
     ' "predicted_limit": "1.07969380108", "ratio_log2":'
     ' "0.0569899785848", "t": 11}, {"d": 5, "g": "5/4",'
     ' "predicted_limit": "1.04189638448", "ratio_log2":'
     ' "0.0126276083277", "t": 12}, {"d": 5, "g": "25/16",'
     ' "predicted_limit": "1.02221155037", "ratio_log2": "0.0", "t":'
     ' 13}, {"d": 5, "g": "15/8", "predicted_limit": "1.01182828026",'
     ' "ratio_log2": "0.0", "t": 14}, {"d": 5, "g": "35/16",'
     ' "predicted_limit": "1.00631392041", "ratio_log2": "0.0", "t":'
     ' 15}, {"d": 5, "g": "5/2", "predicted_limit": "1.00337465487",'
     ' "ratio_log2": "0.0", "t": 16}]}'),
    # the integers on both sides of the lower and the upper threshold at
    # d = 162, c = 1/4, which the float filter of range_tag leaves to
    # interval escalation
    (["--c-constant", "1/4", "cube-window", "--d", "162",
      "--t", "983901200548999509989235008683683587452382131585",
      "--t", "983901200548999509989235008683683587452382131586",
      "--t", "1120997042581640189594153558764653888444982682507",
      "--t", "1120997042581640189594153558764653888444982682508"],
     '{"rows": [{"central_log2": "2.69364703215931831e+48", "d": 162,'
     ' "e1": "2.67566691494908228e-24", "e1_reason": null, "e2":'
     ' "3.36997358051176941e+69412", "e2_reason": null, "f_cut":'
     ' 4219164034511246047894737, "lambda":'
     ' "983901200548999509989235008683683587452382131585/193910207411280'
     '6326418134656748882451859482954367",'
     ' "range": "below", "t":'
     ' 983901200548999509989235008683683587452382131585},'
     ' {"central_log2": "2.69364703215931831e+48", "d": 162, "e1":'
     ' "2.67566691494908228e-24", "e1_reason": null, "e2":'
     ' "3.36997358051176941e+69412", "e2_reason": null, "f_cut":'
     ' 4219164034511246047894737, "lambda":'
     ' "491950600274499754994617504341841793726191065793/969551037056403'
     '163209067328374441225929741477183",'
     ' "range": "range4", "t":'
     ' 983901200548999509989235008683683587452382131586},'
     ' {"central_log2": "2.80749327462335326e+48", "d": 162, "e1":'
     ' "0.999999996553450921", "e1_reason": null, "e2":'
     ' "1.00001156301045132", "e2_reason": null, "f_cut":'
     ' 35886726102544515197, "lambda":'
     ' "1120997042581640189594153558764653888444982682507/18020062320801'
     '65646813216106667912150866882403445",'
     ' "range": "range4", "t":'
     ' 1120997042581640189594153558764653888444982682507},'
     ' {"central_log2": "2.80749327462335326e+48", "d": 162, "e1":'
     ' "0.999999996553450921", "e1_reason": null, "e2":'
     ' "1.00001156301045132", "e2_reason": null, "f_cut":'
     ' 35886726102544515197, "lambda":'
     ' "280249260645410047398538389691163472111245670627/450501558020041'
     '411703304026666978037716720600861",'
     ' "range": "range123", "t":'
     ' 1120997042581640189594153558764653888444982682508}]}'),
]


@pytest.mark.parametrize("argv, stdout", PINNED_JSON,
                         ids=["bounds", "bounds crown:5", "cube-window",
                              "percolate", "transition", "cube-window d162"])
def test_json_stdout_pinned(capsys, argv, stdout):
    assert run_cli(capsys, *argv, "--format", "json") == (0, stdout + "\n", "")


@pytest.mark.parametrize("value", [Decimal("1.5"), complex(1, 2),
                                   mp.mpc(1, 2), mp.iv.mpf(1), object()])
def test_wire_refuses_unknown_types(value):
    # only Fractions and mpmath reals get a JSON form beside what json
    # writes itself; anything else reaching the output is an error, not a
    # guess
    with pytest.raises(TypeError, match="no JSON form"):
        cli._wire(value)
    with pytest.raises(TypeError):
        json.dumps({"x": value}, default=cli._wire)


@pytest.mark.parametrize("argv", [
    ["check", "--graph", "qd:3", "--property", "unimodal"],
    ["cube-structure", "--d", "3", "--set", "0"],
    ["percolate", "--base", "knn:4,4", "--p", "1/2", "--trials", "2"],
    ["percolate", "--base", "cycle:6", "--p", "1/2"],
])
def test_csv_refusal_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: csv format not available for this verb\n"


@pytest.mark.parametrize("argv", [
    # more output than a pipe holds: the write inside the verb fails
    ["count", "--graph", "path:3000"],
    # output held in stdout's buffer until the flush
    ["count", "--graph", "qd:3", "--format", "json"],
    # argparse prints the help and exits before any verb runs
    ["--help"],
])
def test_closed_stdout_exits_2_without_traceback(argv):
    # stdout is a pipe whose reader has already gone, as in `... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(stableseq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)   # keep stdout block-buffered
    try:
        proc = subprocess.run([sys.executable, "-m", "stableseq.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == \
        "error: stdout closed before the output was written\n"


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-verb"])
    assert exc.value.code == 2
    code, _out, err = run_cli(capsys, "count", "--graph", "torus:9")
    assert code == 2
    assert "error" in err


def test_main_restores_caller_precision(capsys):
    # every verb runs at the working precision, whatever the caller's: at
    # 53 bits these 18-digit values would come out different
    argv = ("cube-window", "--d", "96", "--t", str((1 << 95) * 2 // 5),
            "--format", "json")
    default = run_cli(capsys, *argv)
    for caller in ((300, 250), (53, 53)):
        mp.mp.prec, mp.iv.prec = caller
        assert run_cli(capsys, *argv) == default
        assert (mp.mp.prec, mp.iv.prec) == caller


def test_removed_flags_are_usage_errors(capsys):
    for argv in (["count", "--graph", "qd:3", "--backend", "general"],
                 ["bounds", "--graph", "qd:3", "--backend", "auto"],
                 ["check", "--graph", "qd:3", "--property", "unimodal",
                  "--backend", "bipartite"],
                 ["bounds", "--graph", "qd:3", "--d", "3"],
                 ["--workers", "2", "count", "--graph", "qd:3"],
                 ["--precision", "192", "count", "--graph", "qd:3"],
                 ["percolate", "--base", "knn:4,4", "--p", "1/2",
                  "--s-rule", "default"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_cube_over_the_budget_is_refused_at_once():
    # Q_14's root entry alone, at least 8192 slots of 16384 bits past the
    # first, is over the budget: counting took 48 s to reach it, a greedy
    # independent set of 8192 vertices takes milliseconds
    src = os.path.dirname(os.path.dirname(stableseq.__file__))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "stableseq.cli", "count",
                           "--graph", "qd:14"], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True,
                          timeout=60)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: counting budget of {exact.MEMO_WORD_BUDGET} memo words "
        "exceeded after 0 branch nodes and 0 memo entries (2097153 words)\n")


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


def test_count_prints_counts_past_int_digit_limit(capsys, tmp_path):
    # the total 2^15000 and the middle counts have more than the 4300
    # decimal digits CPython converts by default
    path = tmp_path / "edgeless.txt"
    path.write_text("15000 0\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "count", "--graph", f"file:{path}",
                             "--format", "json")
    assert code == 0, err
    # the verb restores the caller's limit
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["total"] == str(1 << 15000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_refuses_graph_over_vertex_cap(capsys):
    # refused before the adjacency rows are allocated
    code, out, err = run_cli(capsys, "count", "--graph", "path:100000")
    assert (code, out) == (2, "")
    assert err == "error: |V| = 100000 exceeds cap 32768\n"


def test_count_refuses_huge_hypercube_before_building_it(capsys):
    # Q_d is refused on d alone: 2^d is never built or printed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--graph", "qd:99999999999")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: |V| = 2^99999999999 exceeds cap 32768\n"
    assert len(err) < 100


# The exit-code contract over a grammar of argv.  Valid values stay small
# (family sizes up to 12, Q_d up to d = 5 where it is counted, two trials,
# cube-window up to d = 64), so every call takes milliseconds.  Each value
# may come padded with whitespace or in non-ASCII digits, or be replaced
# by an invalid form; qd: also takes sizes up to 10^11.
_OTHER_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_INVALID = ("-1", "-3/2", "0", "1/0", "", " ", "x", "1.5", "\u00bd")


@st.composite
def _arg(draw, values):
    """A value of values, spelled plainly, padded or in other digits, or
    one of the invalid forms."""
    form = draw(st.sampled_from(("plain", "padded", "digits", "invalid")))
    if form == "invalid":
        return draw(st.sampled_from(_INVALID))
    text = str(draw(values))
    if form == "padded":
        return f" {text}\t"
    if form == "digits":
        digits = draw(st.sampled_from(_OTHER_DIGITS))
        return text.translate(str.maketrans("0123456789", digits))
    return text


def _ints(lo, hi):
    return _arg(st.integers(lo, hi))


def _fractions(hi):
    return _arg(st.fractions(0, hi, max_denominator=12))


@st.composite
def _graph_spec(draw):
    family = draw(st.sampled_from(("qd", "knn", "cycle", "path", "crown",
                                   "circ", "aems", "torus")))
    if family == "qd":
        size = draw(st.one_of(_ints(0, 5), st.integers(16, 10 ** 11)))
        return f"qd:{size}"
    if family in ("knn", "circ"):
        parts = draw(st.lists(_ints(0, 12), min_size=1, max_size=3))
        return f"{family}:{','.join(parts)}"
    if family == "aems":
        return family
    return f"{family}:{draw(_ints(0, 12))}"


_VERBS = {
    # verb: (flag, value strategy, required)
    "count": [("--graph", _graph_spec(), True)],
    "bounds": [("--graph", _graph_spec(), True), ("--lam", _fractions(8), False)],
    "check": [("--graph", _graph_spec(), True),
              ("--property", st.sampled_from(("unimodal", "final-third", "bgs",
                                              "convex")), True),
              ("--beta", _fractions(1), False), ("--gamma", _fractions(1), False),
              ("--step", _ints(0, 12), False)],
    "cube-structure": [("--d", _ints(0, 6), True),
                       ("--set", st.lists(_ints(0, 70), max_size=4).map(",".join),
                        False)],
    "cube-window": [("--d", _ints(0, 64), True),
                    ("--t", st.one_of(_ints(0, 40), _ints(0, 1 << 64)), True)],
    "transition": [("--d", _ints(0, 5), True), ("--t", _ints(0, 20), False)],
    "percolate": [("--base", _graph_spec(), True), ("--p", _fractions(1), True),
                  ("--seed", _ints(0, 1 << 64), False),
                  ("--trials", _ints(0, 2), False),
                  ("--epsilon", _fractions(1), False)],
}


@st.composite
def _argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--c-constant", draw(_fractions(4))]
    verb = draw(st.sampled_from(sorted(_VERBS)))
    argv.append(verb)
    for flag, values, required in _VERBS[verb] + [
            ("--format", st.sampled_from(("json", "csv", "plain", "xml")),
             False)]:
        if draw(st.floats(0, 1)) < (0.95 if required else 0.4):
            value = draw(values)
            argv += ([f"{flag}={value}"] if draw(st.booleans())
                     else [flag, value])
    return argv


@settings(max_examples=250, deadline=None)
@given(_argvs())
def test_every_argv_exits_0_or_2_with_a_documented_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 2), (argv, code, err)
    lines = err.splitlines(keepends=True)
    assert (err == "" and code == 0
            or code == 2 and len(lines) == 1 and err.startswith("error: ")
            and err.endswith("\n")
            or code == 2 and err.startswith("usage: stableseq")
            and ": error: " in lines[-1]), (argv, err)


# main() parses with one parser built on its first call; these pin that
# the sharing is invisible.

def test_parser_reuse_carries_no_state(capsys):
    for t in ("5", "7"):
        code, out, _ = run_cli(capsys, "cube-window", "--d", "16", "--t", t,
                               "--format", "json")
        assert code == 0
        assert [r["t"] for r in json.loads(out)["rows"]] == [int(t)]

    code, out, _ = run_cli(capsys, "bounds", "--graph", "qd:3",
                           "--lam", "1/3", "--format", "json")
    assert [b["lambda"] for b in json.loads(out)["partition_bounds"]] == ["1/3"]
    code, out, _ = run_cli(capsys, "bounds", "--graph", "qd:3",
                           "--format", "json")
    assert [b["lambda"] for b in json.loads(out)["partition_bounds"]] == \
        ["1/4", "1/2", "1", "2", "4"]

    # --c-constant 1/4 moves t = 0.4 * 2^95 into range4 at d = 96
    window = ("cube-window", "--d", "96", "--t", str((1 << 95) * 2 // 5),
              "--format", "json")
    _code, plain_out, _ = run_cli(capsys, *window)
    code, flagged_out, _ = run_cli(capsys, "--c-constant", "1/4", *window)
    assert code == 0 and flagged_out != plain_out
    assert run_cli(capsys, *window) == (0, plain_out, "")

    with pytest.raises(SystemExit) as exc:
        main(["cube-window", "--d", "96", "--t", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *window) == (0, plain_out, "")


@pytest.mark.parametrize("c", ["0", "-1/4"])
def test_non_positive_c_constant_is_a_usage_error(capsys, c):
    # a lower density window starting at or below t = 0 comes from no
    # positive constant; the value may follow its flag as "=-1/4" or as a
    # separate "-1/4", which argparse alone would read as an option
    for flag in ([f"--c-constant={c}"], ["--c-constant", c]):
        code, out, err = run_cli(capsys, *flag, "cube-window",
                                 "--d", "12", "--t", "0", "--t", "5")
        assert (code, out) == (2, "")
        assert err == \
            f"error: the density-window constant c must be positive, not {c}\n"


# --c-constant takes both forms in test_non_positive_c_constant_is_a_usage_error
@pytest.mark.parametrize("argv, message", [
    (["bounds", "--graph", "qd:3", "--lam", "-1/2"], "lam > 0 required"),
    (["bounds", "--graph", "qd:3", "--lam=-1/2"], "lam > 0 required"),
    (["check", "--graph", "qd:3", "--property", "bgs", "--beta", "-1/2"],
     "property check rejected: beta, gamma must lie in [0, 1)"),
    (["percolate", "--base", "knn:3,3", "--p", "-.5"], "p outside [0, 1]"),
    (["cube-structure", "--d", "3", "--set", "-1,2"],
     "vertex -1 is not a vertex of Q_3"),
])
def test_negative_value_after_its_flag_gives_one_error_line(capsys, argv,
                                                            message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_negative_value_after_help_or_a_separator_is_left_to_argparse(capsys):
    # --help takes no value, and "--" ends the options
    assert _parse_outcome(capsys, main, ["--help", "-1/2"])[0] == 0
    code, out, err = _parse_outcome(capsys, main,
                                    ["count", "--graph", "qd:2", "--", "-1/2"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: stableseq")


def test_cube_window_refuses_a_dimension_over_its_cap_at_once(capsys):
    # d = 4000, the cap, still runs; one past it is refused before any work,
    # where an uncapped d = 10^5 took about 2 s at t = 5
    code, out, _ = run_cli(capsys, "cube-window", "--d", "4000", "--t", "5")
    assert code == 0 and out.startswith("d=4000 t=5 ")
    for d in (4001, 10 ** 6, 10 ** 100):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "cube-window", "--d", str(d),
                                 "--t", "5")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: dimension d = {d} outside [1, 4000]\n"


def test_global_flags_do_not_leak_into_next_call(capsys, monkeypatch):
    seen = []

    def record(args):
        seen.append(args.c_constant)
        return 0
    monkeypatch.setattr(cli, "cmd_cube_window", record)
    assert main(["--c-constant", "1/4",
                 "cube-window", "--d", "8", "--t", "20"]) == 0
    assert main(["cube-window", "--d", "8", "--t", "20"]) == 0
    assert seen == [Fraction(1, 4), Fraction(1)]


VERBS = ("count", "bounds", "check", "cube-structure", "cube-window",
         "transition", "percolate", "verify")
HELP_AND_ERROR_ARGVS = (
    [["--help"]] + [[verb, "--help"] for verb in VERBS]
    + [[], ["count", "--graph", "qd:3", "--backend", "x"],
       ["percolate", "--base", "knn:4,4", "--p", "notarational"],
       ["bounds", "--graph", "qd:3", "--lam", "1/0"]])


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("columns", ["80", "50"])
def test_help_and_usage_errors_match_a_fresh_parser(capsys, monkeypatch,
                                                    columns):
    run_cli(capsys, "count", "--graph", "qd:2")   # the shared parser exists
    monkeypatch.setenv("COLUMNS", columns)
    for argv in HELP_AND_ERROR_ARGVS:
        shared = _parse_outcome(capsys, main, argv)
        fresh = _parse_outcome(capsys, build_parser().parse_args, argv)
        assert shared == fresh, argv
        assert shared[0] == (0 if "--help" in argv else 2), argv
        assert (shared[1] if "--help" in argv else shared[2]).startswith(
            "usage: stableseq"), argv


def test_verb_dispatch_follows_rebinding(capsys, monkeypatch):
    run_cli(capsys, "count", "--graph", "qd:2")   # the shared parser exists
    calls = []

    def replacement(args):
        calls.append(args.graph)
        return 7
    monkeypatch.setattr(cli, "cmd_count", replacement)
    assert main(["count", "--graph", "qd:3"]) == 7
    assert calls == ["qd:3"]
    assert capsys.readouterr().out == ""


def test_parser_is_built_once(capsys, monkeypatch):
    run_cli(capsys, "count", "--graph", "qd:2")   # the shared parser exists

    def rebuild():
        raise AssertionError("parser rebuilt")
    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert run_cli(capsys, "count", "--graph", "qd:2")[0] == 0
