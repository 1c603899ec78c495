import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableseq import graphs
from stableseq import seqshape as ss
from stableseq.exact import count_by_size

from util import bgs_interval_ends, regular_bipartite_corpus

AEMS = (1, 49, 48, 64)


def oracle_sstep(counts, kind, lo, hi, s):
    """All-pairs reference for the step-monotonicity checker."""
    ok = True
    first = None
    for i in range(lo, hi + 1):
        for j in range(i + s, hi + 1):
            bad = counts[i] > counts[j] if kind == ss.INCREASING \
                else counts[i] < counts[j]
            if bad:
                ok = False
                if first is None:
                    first = (i, j)
                break
        if not ok and first is not None and first[0] == i:
            # lexicographic order: the first violating i with its least j
            return ok, first
    return ok, first


def test_sstep_examples():
    rep = ss.check_sstep((1, 2, 3, 4), ss.INCREASING, 0, 3, 1)
    assert rep.holds and rep.witness is None
    rep = ss.check_sstep(AEMS, ss.INCREASING, 0, 3, 1)
    assert not rep.holds and rep.witness == (1, 2)
    rep = ss.check_sstep(AEMS, ss.INCREASING, 0, 3, 2)
    assert rep.holds  # 1 <= 48 and 49 <= 64
    rep = ss.check_sstep((5, 1, 7), ss.INCREASING, 0, 2, 5)
    assert rep.holds  # vacuous: no admissible pair


def test_sstep_malformed_interval():
    with pytest.raises(ValueError):
        ss.check_sstep((1, 2), ss.INCREASING, 1, 0, 1)
    with pytest.raises(ValueError):
        ss.check_sstep((1, 2), ss.INCREASING, 0, 5, 1)
    with pytest.raises(ValueError):
        ss.check_sstep((1, 2), ss.INCREASING, 0, 1, 0)
    with pytest.raises(ValueError):
        ss.check_sstep((1, 2), "sideways", 0, 1, 1)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=12),
       st.integers(min_value=1, max_value=6),
       st.sampled_from((ss.INCREASING, ss.DECREASING)))
@settings(max_examples=400, deadline=None)
def test_sstep_agrees_with_all_pairs_oracle(counts, s, kind):
    lo, hi = 0, len(counts) - 1
    rep = ss.check_sstep(counts, kind, lo, hi, s)
    ok, first = oracle_sstep(counts, kind, lo, hi, s)
    assert rep.holds == ok
    assert rep.witness == first


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=2,
                max_size=10),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_sstep_witness_actually_violates(counts, s):
    for kind in (ss.INCREASING, ss.DECREASING):
        rep = ss.check_sstep(counts, kind, 0, len(counts) - 1, s)
        if rep.witness is not None:
            i, j = rep.witness
            assert 0 <= i and j <= len(counts) - 1 and j - i >= s
            if kind == ss.INCREASING:
                assert counts[i] > counts[j]
            else:
                assert counts[i] < counts[j]
        assert rep.holds == (rep.witness is None)


def test_unimodal_agrees_with_double_sstep_on_random_sequences():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randrange(1, 14)
        counts = [rng.randrange(0, 12) for _ in range(n)]
        holds, witness = ss.is_unimodal(counts)
        # oracle: some mode index works
        oracle = any(
            oracle_sstep(counts, ss.INCREASING, 0, k, 1)[0]
            and oracle_sstep(counts, ss.DECREASING, k, n - 1, 1)[0]
            for k in range(n))
        assert holds == oracle
        if witness is not None:
            i, j = witness
            assert counts[i] != counts[j]


def test_property_bgs_q4():
    seq = count_by_size(graphs.hypercube(4))
    rep = ss.check_property_bgs(seq, 8, 0, Fraction(2, 10), 1)
    assert rep.holds
    assert rep.increasing.holds and rep.decreasing.holds


def test_property_bgs_symmetric_toy():
    toy = (1, 3, 9, 27, 9, 3, 1)
    rep = ss.check_property_bgs(toy, 6, 0, 0, 1)
    assert rep.holds  # unimodal with mode at n/2


def test_property_bgs_zero_zero_one_needs_mode_at_half():
    # the d = 5 hypercube sequence is unimodal but peaks one step before
    # n/2, so the all-zero parameters reject it while (0, 1/4, 1) passes
    seq = count_by_size(graphs.hypercube(5))
    assert ss.is_unimodal(seq)[0]
    strict = ss.check_property_bgs(seq, 16, 0, 0, 1)
    assert not strict.holds
    assert strict.increasing.witness == (6, 8)  # 48960 > 44240, least i first
    relaxed = ss.check_property_bgs(seq, 16, 0, Fraction(1, 4), 1)
    assert relaxed.holds


def test_property_bgs_rejects_wrong_range():
    with pytest.raises(ValueError):
        ss.check_property_bgs(AEMS, 24, 0, 0, 1)  # claw composite: alpha != n
    for bad in (Fraction(-1, 3), 1, Fraction(7, 5)):
        for beta, gamma in ((bad, Fraction(1, 2)), (Fraction(1, 2), bad)):
            with pytest.raises(ValueError, match=r"^beta, gamma must lie"):
                ss.check_property_bgs((1, 2, 1), 2, beta, gamma, 1)
    # a step below 1, also where both intervals are empty and no s-step
    # check runs on them
    for beta_gamma in (0, Fraction(9, 10)):
        for s in (0, -3):
            with pytest.raises(ValueError, match="^step s must be >= 1$"):
                ss.check_property_bgs((1, 8, 16, 8, 2), 4, beta_gamma,
                                      beta_gamma, s)


@st.composite
def _below_one(draw):
    """A rational in [0, 1), its denominator up to 12 or up to 10^30."""
    q = draw(st.one_of(st.integers(1, 12), st.integers(1, 10 ** 30)))
    return Fraction(draw(st.integers(0, q - 1)), q)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(0, 40), st.integers(0, 5000)), _below_one(),
       _below_one())
def test_property_bgs_ends_match_fraction_ceil_and_floor(n, beta, gamma):
    lo1, hi1, lo2, hi2 = bgs_interval_ends(n, beta, gamma)
    # s = n + 1 makes both checks vacuous: only the intervals are read
    rep = ss.check_property_bgs((1,) * (n + 1), n, beta, gamma, n + 1)
    assert (rep.increasing.lo, rep.increasing.hi) == \
        ((lo1, hi1) if hi1 >= lo1 else (lo1, lo1))
    assert (rep.decreasing.lo, rep.decreasing.hi) == \
        ((lo2, hi2) if hi2 >= lo2 else (hi2, hi2))


def test_property_bgs_monotone_in_s_on_corpus():
    for name, g, _d in regular_bipartite_corpus()[:12]:
        seq = count_by_size(g)
        n = g.n // 2
        held = False
        for s in range(1, n + 2):
            rep = ss.check_property_bgs(seq, n, Fraction(1, 10),
                                        Fraction(1, 10), s)
            if held:
                assert rep.holds, (name, s)
            held = rep.holds


def test_property_bgs_monotone_in_beta_gamma_on_corpus():
    params = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]
    for name, g, _d in regular_bipartite_corpus()[:10]:
        seq = count_by_size(g)
        n = g.n // 2
        for i, beta in enumerate(params[:-1]):
            for gamma in params:
                if ss.check_property_bgs(seq, n, beta, gamma, 2).holds:
                    for beta2 in params[i:]:
                        for gamma2 in [x for x in params if x >= gamma]:
                            assert ss.check_property_bgs(
                                seq, n, beta2, gamma2, 2).holds, name


def test_final_third_examples():
    q3 = count_by_size(graphs.hypercube(3))
    holds, witness = ss.check_final_third(q3)  # start index ceil(7/3) = 3
    assert holds and witness is None
    assert ss.check_final_third((1, 5, 3, 3, 3))[0]  # constant tail allowed
    holds, witness = ss.check_final_third((1, 2, 3, 2, 5))
    assert not holds and witness == (3, 4)


def test_final_third_on_corpus():
    for name, g, _d in regular_bipartite_corpus():
        seq = count_by_size(g)
        holds, _ = ss.check_final_third(seq)
        assert holds, name


def test_transition_g_and_limit():
    assert ss.transition_g(5, 8) == 0
    assert ss.transition_g(5, 12) == Fraction(5, 4)
    limit0 = ss.predicted_transition_limit(0)
    assert abs(limit0 - mp.exp(mp.mpf(1) / 2)) < mp.mpf(2) ** -100
    assert abs(ss.predicted_transition_limit(40) - 1) < mp.mpf(1e-30)
    assert ss.predicted_transition_limit(-3) > 100


def test_transition_ratio_qualitative_at_d5():
    seq = count_by_size(graphs.hypercube(5))
    ratio_log2 = ss.transition_ratio_log2(5, 8, it=seq[8])
    ratio = mp.mpf(2) ** ratio_log2
    # d = 5 is far from the limit; only a loose qualitative agreement with
    # exp(1/2) = 1.6487 is sane to expect
    assert 1 < ratio < 3


def test_transition_ratio_nonnegative_on_hypercubes():
    # for 1 <= t <= 2^(d-1) the one-sided subsets of the two classes are
    # disjoint, so i_t >= 2 C(2^(d-1), t) and the log ratio is >= 0
    for d in (3, 4, 5):
        seq = count_by_size(graphs.hypercube(d))
        for t in range(1, (1 << (d - 1)) + 1):
            assert ss.transition_ratio_log2(d, t, it=seq[t]) >= 0, (d, t)
    # t = 0 double-counts the empty set: ratio is exactly 1/2
    assert ss.transition_ratio_log2(4, 0, it=1) == -1


def test_transition_ratio_argument_validation():
    with pytest.raises(ValueError):
        ss.transition_ratio_log2(4, 99, it=5)
