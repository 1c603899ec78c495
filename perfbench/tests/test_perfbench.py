"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Tiny-size runs of every workload, determinism of outputs and traced counts,
a corrupted expectation that must surface as a failed call, the oracles
against independent derivations, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    out = _last_json(_run("--workload", workload, "--seed", "3", "--seconds",
                          "0.2", "--trace", "0", "--tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    out = _last_json(_run("--workload", "certify", "--seed", "3", "--seconds",
                          "0.2", "--trace", "1", "--tiny"))
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert out["metrics"]["cube.cache_hits"]["value"] > 0
    assert out["metrics"]["cube.cache_misses"]["value"] > 0


def test_benchmark_json_matches_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _in_process(tmp_path, name, sub, trace=False):
    cwd = os.getcwd()
    os.makedirs(tmp_path / sub)
    os.chdir(tmp_path / sub)
    try:
        return worker.run_workload(name, 11, 0, trace, tiny=True)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_outputs_and_traced_counts(tmp_path, workload):
    a = _in_process(tmp_path, workload, "a", trace=True)
    b = _in_process(tmp_path, workload, "b", trace=True)
    assert not a["failures"] and not b["failures"]
    assert a["digest"] == b["digest"] is not None
    counts = [{k: v for k, v in r["trace"].items()
               if tracer.metric_unit(k) != "s"} for r in (a, b)]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] > 0 and counts[0]["exact.vertices"] > 0


def test_call_times_are_scaled_by_the_latest_probe(tmp_path):
    res = _in_process(tmp_path, "certify", "p")
    for raw, scaled, probes in zip(res["raw_latencies"], res["latencies"],
                                   res["probes"]):
        assert len(raw) == len(scaled) and probes
        factors = {probe.NOMINAL_S / p for p in probes}
        assert all(min(abs(s / r - f) for f in factors) < 1e-9 * s / r
                   for r, s in zip(raw, scaled))
    assert res["walls"] == [sum(lat) for lat in res["latencies"]]


def test_tracer_restores_the_program(tmp_path):
    import stableseq.cli
    import stableseq.exact
    before = (stableseq.cli.count_by_size, stableseq.exact.count_by_size)
    _in_process(tmp_path, "count", "t", trace=True)
    assert (stableseq.cli.count_by_size, stableseq.exact.count_by_size) == before
    assert not hasattr(before[0], "__wrapped__")


def test_corrupted_expectation_is_counted_as_failed(tmp_path, monkeypatch):
    wrong = oracles.HYPERCUBE_SEQUENCES[3][:-1] + (3,)
    monkeypatch.setitem(oracles.HYPERCUBE_SEQUENCES, 3, wrong)
    res = _in_process(tmp_path, "count", "c")
    assert res["failures"] and any("qd:3" in f for f in res["failures"])
    assert len(res["failures"]) / res["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "count", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _hypercube_sets(d: int) -> list[int]:
    """Independent sets of Q_d as bitmasks: Q_d is two copies of Q_(d-1)
    joined by a perfect matching, so its independent sets are the pairs of
    disjoint independent sets of Q_(d-1)."""
    if d == 0:
        return [0, 1]
    sub = _hypercube_sets(d - 1)
    shift = 1 << (d - 1)
    return [a | b << shift for a in sub for b in sub if not a & b]


def test_hypercube_sequences_by_transfer_matrix():
    for d in range(5):
        sets = _hypercube_sets(d)
        counts = [0] * (max(s.bit_count() for s in sets) + 1)
        for s in sets:
            counts[s.bit_count()] += 1
        assert tuple(counts) == oracles.HYPERCUBE_SEQUENCES[d]
    sub, by_size = _hypercube_sets(4), {}
    for a in sub:
        for b in sub:
            if not a & b:
                k = a.bit_count() + b.bit_count()
                by_size[k] = by_size.get(k, 0) + 1
    assert tuple(by_size[k] for k in range(len(by_size))) == \
        oracles.HYPERCUBE_SEQUENCES[5]
    for d, seq in oracles.HYPERCUBE_SEQUENCES.items():
        assert sum(seq) == oracles.HYPERCUBE_TOTALS[d]


def test_low_order_formulas_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 14)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        seq = oracles.enumerate_sequence(n, edges)
        padded = seq + (0,) * 4
        assert oracles.low_order_counts(n, edges) == padded[:4]


def test_closed_forms_match_enumeration():
    for n in range(3, 13):
        cyc = [(i, (i + 1) % n) for i in range(n)]
        assert oracles.cycle_sequence(n) == oracles.enumerate_sequence(n, cyc)
        assert sum(oracles.cycle_sequence(n)) == oracles.lucas(n)
        pth = [(i, i + 1) for i in range(n - 1)]
        assert oracles.path_sequence(n) == oracles.enumerate_sequence(n, pth)
        assert sum(oracles.path_sequence(n)) == oracles.fibonacci(n + 2)
    for d in range(2, 7):
        crown = [(i, d + j) for i in range(d) for j in range(d) if i != j]
        assert oracles.crown_sequence(d) == oracles.enumerate_sequence(2 * d, crown)
        knn = [(i, d + j) for i in range(d) for j in range(d)]
        union = knn + [(2 * d + u, 2 * d + v) for u, v in knn]
        assert oracles.knn_union_sequence(2, d) == \
            oracles.enumerate_sequence(4 * d, union)
    for a, b in ((1, 1), (2, 5), (4, 3), (6, 6)):
        knn = [(i, a + j) for i in range(a) for j in range(b)]
        assert oracles.knn_sequence(a, b) == oracles.enumerate_sequence(a + b, knn)
