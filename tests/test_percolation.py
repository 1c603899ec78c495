import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from stableseq import exact, graphs, percolation as pc
from stableseq import seqshape as ss
from stableseq import bounds as bnd
from stableseq.exact import count_by_size

from stableseq.cli import main
from util import (check_simple, cli_json, default_step_rule, edge_count,
                  knn_sequence, mpmath_step_rule, percolate)


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


def test_run_experiment_leaves_caller_precision():
    # the step rule is exact and uses no mpmath: the summary is the same at
    # any caller precision, which the experiment leaves as it was
    summaries = []
    saved = mp.mp.prec, mp.iv.prec
    try:
        for caller in (53, 300):
            mp.mp.prec = mp.iv.prec = caller
            summaries.append(pc.run_experiment("knn:6,6", Fraction(1, 2),
                                               seed=4, trials=2))
            assert (mp.mp.prec, mp.iv.prec) == (caller, caller)
    finally:
        mp.mp.prec, mp.iv.prec = saved
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


def _is_power(n: int, base: int) -> bool:
    while n % base == 0:
        n //= base
    return n == 1


@st.composite
def step_inputs(draw):
    """(n, h, epsilon) with epsilon >= 10**-12, n <= 16384 and h a rational
    with denominator up to 10**12, away from the two cases where the mpmath
    rule's product can be an integer: r = (1 + eps)/(1 - eps) an integer
    with n a power of it, or r a power of two with n h an integer."""
    b = draw(st.integers(2, 10 ** 12))
    # a small numerator often, so that s often passes the float band
    epsilon = Fraction(draw(st.one_of(st.integers(1, min(b - 1, 100)),
                                      st.integers(1, b - 1))), b)
    n = draw(st.integers(1, 16384))
    den = draw(st.integers(1, 10 ** 12))
    h = Fraction(draw(st.integers(0, 4 * den)), den)
    r = (1 + epsilon) / (1 - epsilon)
    if r.denominator == 1:
        assume(not _is_power(n, r.numerator))
        assume(not _is_power(r.numerator, 2) or (n * h).denominator > 1)
    return n, h, epsilon


@settings(max_examples=400, deadline=None)
@given(step_inputs())
def test_step_rule_matches_mpmath_rule(inputs):
    # floats decide where their band is clear of an integer, integers
    # elsewhere (every s past about 2**35, so every epsilon near 10**-12)
    n, h, epsilon = inputs
    assert pc._step_rule(n, epsilon)(h) == mpmath_step_rule(n, epsilon)(h)


@settings(max_examples=200, deadline=None)
@given(step_inputs())
def test_integer_route_matches_float_route(inputs):
    # with no float quotient trusted, every ceiling is decided in integers
    n, h, epsilon = inputs
    expected = pc._step_rule(n, epsilon)(h)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pc, "_float_ceil", lambda q: None)
        assert pc._step_rule(n, epsilon)(h) == expected


@pytest.mark.parametrize("epsilon, k", [(Fraction(1, 3), 1),
                                        (Fraction(3, 5), 2),
                                        (Fraction(7, 9), 3)])
def test_step_rule_exact_where_r_is_a_power_of_two(epsilon, k):
    # r = 2**k: log2 r = k, and the ceilings of log2 n / k and n h / k are
    # exact even where they are integers, as at n = 64 and n h = 6, 12, 24
    rule = lambda n, h: pc._step_rule(n, epsilon)(h)
    assert [rule(64, Fraction(1, 64)), rule(8, Fraction(3, 4)),
            rule(16, Fraction(3, 4)), rule(16, Fraction(3, 2)),
            rule(1, Fraction(0))] == {
        1: [6, 6, 12, 24, 1],
        2: [3, 3, 6, 12, 1],
        3: [2, 2, 4, 8, 1],
    }[k]


def test_step_rule_exact_where_n_is_a_power_of_r():
    # r = 3 at epsilon = 1/2 and r = 5 at 2/3: log2 n / log2 r is the
    # exponent itself, with no rounding to carry it past
    for epsilon, r in ((Fraction(1, 2), 3), (Fraction(2, 3), 5)):
        for e in range(1, 9):
            assert pc._step_rule(r ** e, epsilon)(Fraction(1, r ** e)) == e
            assert pc._step_rule(r ** e + 1, epsilon)(Fraction(0)) == e + 1


@pytest.mark.parametrize("digits", [30, 47, 49, 60])
def test_step_rule_exact_at_tiny_epsilon(digits):
    # where 160 bits of mpmath lose digits of s (from about 10**-30) or
    # round r to 1 (below about 10**-48): the exact rule agrees with the
    # mpmath rule at 2000 bits, in well under a second
    epsilon = Fraction(1, 10 ** digits)
    start = time.perf_counter()
    s = pc._step_rule(2, epsilon)(Fraction(1, 2))
    assert time.perf_counter() - start < 1
    assert s == mpmath_step_rule(2, epsilon, 2000)(Fraction(1, 2))
    if digits == 30:
        assert s == 346573590279972654708616060730


def test_step_rule_refuses_an_epsilon_past_its_precision():
    # a 10**5-digit denominator would need log2 r to about 660000 bits: the
    # rule refuses at once, naming its bound, and the verb exits 2 with one
    # error line
    epsilon = Fraction(1, 10 ** 100000)
    with pytest.raises(ValueError, match=f"more than {pc._STEP_BITS} bits"):
        pc._step_rule(2, epsilon)
    # just inside the bound the rule is exact
    epsilon = Fraction(1, 10 ** 4000)
    assert pc._step_rule(2, epsilon)(Fraction(1, 2)) == \
        mpmath_step_rule(2, epsilon, 3 * pc._STEP_BITS // 2)(Fraction(1, 2))
    # and near 1 it is cheap: log2 r is about 332193
    assert pc._step_rule(16384, 1 - Fraction(1, 10 ** 100000))(
        Fraction(3)) == 1


def test_percolate_refuses_an_epsilon_past_its_precision(capsys):
    code = main(["percolate", "--base", "knn:2,2", "--p", "1", "--epsilon",
                 "1/1" + "0" * 100000])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: the step rule at this epsilon needs "
                   f"log2((1 + epsilon)/(1 - epsilon)) to more than "
                   f"{pc._STEP_BITS} bits\n")


def test_float_functions_within_step_rule_assumption():
    # the step rule takes math.atanh on (2**-1000, 1/3) and math.log2 on
    # integers from 2 and on ratios of at least 2 to be within 2**-44,
    # relative
    xs = [2.0 ** -k for k in range(1, 1000, 7)] + \
        [k / 3000 for k in range(1, 1000)] + [1 / 3, 0.1, 0.2]
    ys = [float(k) for k in range(2, 5000)] + [2.0 + k / 97 for k in range(
        1000)] + [3.0 ** k for k in range(1, 600)]
    with mp.workprec(120):
        for x in xs:
            exact = mp.atanh(mp.mpf(x))
            assert abs(math.atanh(x) - exact) <= exact * 2.0 ** -44, x
        for y in ys:
            exact = mp.log(mp.mpf(y), 2)
            assert abs(math.log2(y) - exact) <= exact * 2.0 ** -44, y
    assert abs(pc._TWO_OVER_LN2 - 2 / mp.log(2)) <= 2.0 ** -52


@pytest.mark.parametrize("num, den", [(11, 9), (3, 1), (7, 4), (2 ** 70 + 1,
                                                                  2 ** 70),
                                      (10 ** 40, 3)])
def test_log2_bracket_holds_the_value(num, den):
    with mp.workprec(800):
        exact = mp.log(mp.mpf(num) / den, 2)
        for bits in (8, 64, 200, 500):
            lo, hi = pc._log2_bracket(num, den, bits)
            assert lo <= exact * 2 ** bits <= hi
            assert hi - lo <= 8 * bits


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
