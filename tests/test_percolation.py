import math
from fractions import Fraction

import mpmath as mp
import pytest

from stableseq import exact, graphs, percolation as pc
from stableseq import seqshape as ss
from stableseq import bounds as bnd
from stableseq.exact import count_by_size

from util import (check_simple, cli_json, default_step_rule, edge_count,
                  knn_sequence, percolate)


def test_splitmix64_published_vectors():
    # the first outputs of the reference SplitMix64 generator (Steele, Lea
    # and Flood 2014) from states 0 and 1234567, and the second from state 0
    assert pc._splitmix64(0) == 0xE220A8397B1DCDAF
    assert pc._splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    assert pc._splitmix64(1234567) == 6457827717110365317


def naive_percolate(g, p, seed, trial):
    """Reference sampler: for every edge u < v in ascending order, three
    SplitMix64 calls on (seed, trial, edge index) and the threshold
    floor(p * 2^64) computed afresh."""
    mask = (1 << 64) - 1
    adj = [0] * g.n
    index = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u] >> v & 1:
                continue
            word = pc._splitmix64(pc._splitmix64(pc._splitmix64(
                seed & mask) ^ (trial & mask)) ^ index)
            if word < (p.numerator << 64) // p.denominator:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            index += 1
    return adj


def test_percolate_matches_naive_stream():
    for spec in ("knn:4,4", "qd:4", "cycle:9"):
        g = graphs.parse_graph_spec(spec)
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
            for seed, trial in ((0, 0), (2024, 3), (1 << 64, 1),
                                (3 << 70 | 5, 7), (99, 10 ** 6)):
                got = percolate(g, p, seed, trial).adj
                assert list(got) == naive_percolate(g, p, seed, trial), \
                    (spec, p, seed, trial)


@pytest.mark.parametrize("spec", ["knn:16,16", "qd:6", "knn:0,5",
                                  "knn:33,33"])
def test_lane_sampler_matches_naive_stream(spec):
    # knn:16,16 fills 256 lanes, knn:33,33 more than one pass of _LANES,
    # knn:0,5 none; the thresholds at and next to 0 and 2^64
    g = graphs.parse_graph_spec(spec)
    assert spec != "knn:33,33" or edge_count(g) > pc._LANES
    for p in (Fraction(0), Fraction(1), Fraction(1, 1 << 64),
              1 - Fraction(1, 1 << 64), Fraction(1, 3)):
        for seed in ((1 << 64) - 1, 1 << 64, -1):
            got = percolate(g, p, seed, trial=seed % 5).adj
            assert list(got) == naive_percolate(g, p, seed, seed % 5), \
                (spec, p, seed)


def test_percolate_p_one_and_zero():
    g = graphs.complete_bipartite(6, 6)
    assert percolate(g, 1, 99).adj == g.adj
    assert edge_count(percolate(g, 0, 99)) == 0
    with pytest.raises(ValueError):
        percolate(g, Fraction(3, 2), 1)


def test_percolate_deterministic_and_simple():
    g = graphs.hypercube(4)
    a = percolate(g, Fraction(1, 3), 2024)
    b = percolate(g, Fraction(1, 3), 2024)
    assert a.adj == b.adj
    check_simple(a)
    c = percolate(g, Fraction(1, 3), 2025)
    assert c.adj != a.adj  # overwhelmingly likely under a changed seed


def test_percolate_trial_streams_differ():
    g = graphs.complete_bipartite(8, 8)
    a = percolate(g, Fraction(1, 2), 7, trial=0)
    b = percolate(g, Fraction(1, 2), 7, trial=1)
    assert a.adj != b.adj


def test_percolate_binomial_mean_band():
    # K_{8,8} at p = 1/2 over 10^4 trials: mean kept-edge count within the
    # three-sigma band around 32 (sigma of the mean = 4/100)
    g = graphs.complete_bipartite(8, 8)
    trials = 10 ** 4
    total = sum(edge_count(percolate(g, Fraction(1, 2), 31415, trial=i))
                for i in range(trials))
    mean = total / trials
    sigma_mean = math.sqrt(64 * 0.25) / math.sqrt(trials)
    assert abs(mean - 32) <= 3 * sigma_mean, mean


def test_gnnp_single_edge_and_degree_band():
    g = percolate(graphs.complete_bipartite(1, 1), 1, 5)
    assert g.n == 2 and edge_count(g) == 1
    # the experiment's frame on knn:n,n is the base's own bipartition: the
    # sides {0..n-1} and {n..2n-1}
    n, p, trials = 12, Fraction(1, 3), 400
    base = graphs.complete_bipartite(n, n)
    frame = graphs.bipartition(base)
    assert frame.class_e == tuple(range(n))
    assert frame.class_o == tuple(range(n, 2 * n))
    # expected vertex degree n p; averaged over trials stays within 3 sigma
    degsum = 0
    for i in range(trials):
        degsum += percolate(base, p, 777, trial=i).adj[0].bit_count()
    mean = degsum / trials
    sigma_mean = math.sqrt(n * (1 / 3) * (2 / 3)) / math.sqrt(trials)
    assert abs(mean - n * p) <= 3 * sigma_mean


def test_run_experiment_deterministic():
    one = pc.run_experiment("knn:10,10", Fraction(1, 2), seed=91, trials=12)
    two = pc.run_experiment("knn:10,10", Fraction(1, 2), seed=91, trials=12)
    assert one == two
    assert len(one.records) == 12
    assert one.success_rate == Fraction(
        sum(1 for r in one.records if r.holds), 12)


def test_run_experiment_runs_at_working_precision(monkeypatch):
    # the experiment counts at 160/160 whatever the caller's precisions,
    # gives the same summary, and hands the caller's precisions back
    seen = []

    def count(g):
        seen.append((mp.mp.prec, mp.iv.prec))
        return count_by_size(g)
    monkeypatch.setattr(pc, "count_by_size", count)
    summaries = []
    for caller in (53, 300):
        mp.mp.prec = mp.iv.prec = caller
        summaries.append(pc.run_experiment("knn:6,6", Fraction(1, 2),
                                           seed=4, trials=2))
        assert (mp.mp.prec, mp.iv.prec) == (caller, caller)
    assert seen == [(160, 160)] * 4
    assert summaries[0] == summaries[1]


def test_run_experiment_p_one_matches_closed_form():
    # at p = 1 every sample is K_{n,n} itself: the verdict must match a
    # direct check on the closed-form sequence
    n = 9
    summary = pc.run_experiment(f"knn:{n},{n}", Fraction(1), seed=3,
                                trials=2, epsilon=Fraction(1, 10))
    seq = knn_sequence(n)
    assert seq.counts == count_by_size(graphs.complete_bipartite(n, n)).counts
    s_used = summary.records[0].s_used
    direct = ss.check_property_bgs(seq, n, Fraction(1, 10), Fraction(1, 10),
                                   s_used)
    assert all(r.holds == direct.holds for r in summary.records)
    assert summary.success_rate == (1 if direct.holds else 0)
    # K_{n,n} is n-regular: the defect collapses to 1/n
    assert all(r.h_value == Fraction(1, n) for r in summary.records)


def test_run_experiment_on_qd4_at_p_one_matches_direct_check():
    # Q_4 is a 4-regular bipartite base: at p = 1 every sample is Q_4, the
    # defect is 1/4 and each verdict is a direct check on the exact count
    summary = pc.run_experiment("qd:4", Fraction(1), seed=8, trials=3,
                                epsilon=Fraction(1, 10))
    seq = count_by_size(graphs.hypercube(4))
    s_used = default_step_rule(8, Fraction(1, 4), Fraction(1, 10))
    direct = ss.check_property_bgs(seq, 8, Fraction(1, 10), Fraction(1, 10),
                                   s_used)
    assert summary.d_prime == 4
    for r in summary.records:
        assert (r.h_value, r.s_used, r.alpha, r.flagged) == \
            (Fraction(1, 4), s_used, 8, False)
        assert r.holds == direct.holds


@pytest.mark.parametrize("base, p", [("knn:16,16", Fraction(1, 2)),
                                     ("qd:4", Fraction(3, 4)),
                                     ("knn:33,33", Fraction(1, 3))])
def test_run_experiment_matches_per_trial_route(base, p):
    # the experiment builds its sampler and step rule once; every record
    # must equal the one the per-trial calls give (knn:33,33 has 1089
    # edges, so each sample spans two lane passes)
    eps = Fraction(1, 10)
    summary = pc.run_experiment(base, p, seed=5, trials=3, epsilon=eps)
    g = graphs.parse_graph_spec(base)
    frame = graphs.bipartition(g)
    n = g.n // 2
    for r in summary.records:
        sample = percolate(g, p, summary.seed, r.trial)
        h = graphs.regularity_profile(sample, frame, summary.d_prime)
        assert (r.h_value, r.s_used, r.alpha) == \
            (h, default_step_rule(n, h, eps), count_by_size(sample).alpha)


def test_theorem_step_consistency_at_p_one():
    # the regular-case step bound applied to the closed-form K_{n,n}
    # sequence: the two-sided property with beta = 0 must hold
    for n in range(2, 23, 4):
        s, _c = bnd.step_bound_regular(n, n, Fraction(1, 10))
        seq = knn_sequence(n)
        rep = ss.check_property_bgs(seq, n, 0, Fraction(1, 10),
                                    max(1, min(s, n + 1)))
        assert rep.holds, n


def test_default_step_rule():
    # h = 19/32 makes the n h term dominate log2(16) = 4:
    # ceil(9.5 / log2(11/9)) = 33
    assert default_step_rule(16, Fraction(19, 32), Fraction(1, 10)) == 33
    # tiny defect: the log term takes over
    assert default_step_rule(16, Fraction(1, 1000), Fraction(1, 10)) == \
        math.ceil(4 / math.log2(0.55 / 0.45))


def test_flagged_trials_counted_as_failures():
    # p = 0 gives the empty graph: alpha = 2n != n, so every trial flags
    summary = pc.run_experiment("knn:5,5", Fraction(0), seed=1, trials=3)
    assert summary.success_rate == 0
    assert all(r.flagged and not r.holds for r in summary.records)
    assert all(r.alpha == 10 for r in summary.records)


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        pc.run_experiment("knn:4,4", Fraction(2), seed=0, trials=1)
    with pytest.raises(ValueError):
        pc.run_experiment("knn:4,4", Fraction(1, 2), seed=0, trials=0)
    # p is checked first, then trials, and both before the base is read
    with pytest.raises(ValueError, match=r"^p outside \[0, 1\]$"):
        pc.run_experiment("knn:4,5", Fraction(3, 2), seed=0, trials=0)
    with pytest.raises(ValueError, match=r"^trials >= 1 required$"):
        pc.run_experiment("knn:4,5", Fraction(1, 2), seed=0, trials=0)
    # an experiment beyond the counting budget is refused, not run
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 100)
    with pytest.raises(exact.CountBudgetError):
        pc.run_experiment("knn:40,40", Fraction(1, 2), seed=0, trials=1)


def test_summary_json_fields(capsys):
    payload = cli_json(capsys, "percolate", "--base", "knn:6,6", "--p", "1/2",
                       "--seed", "11", "--trials", "4")
    assert payload["base"] == "knn:6,6"
    assert payload["p"] == "1/2"
    assert payload["d_prime"] == "3/1"
    assert len(payload["per_trial"]) == 4
    for rec in payload["per_trial"]:
        assert set(rec) == {"trial", "stream_id", "h_value", "s_used",
                            "alpha", "holds", "flagged"}
