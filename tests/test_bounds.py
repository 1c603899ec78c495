import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableseq import bounds as bnd
from stableseq import graphs
from stableseq.exact import count_by_size, polynomial_eval
from stableseq.graphs import bipartition

from util import regular_bipartite_corpus

ULP128 = mp.mpf(2) ** -126  # two units at 128-bit working precision


def test_entropy_values():
    assert bnd.entropy(Fraction(1, 2)).value == 1
    assert bnd.entropy(0).value == 0
    assert bnd.entropy(1).value == 0
    # H(1/4) = 2 - (3/4) log2 3
    expected = 2 - Fraction(3, 4) * mp.log(3, 2)
    assert abs(bnd.entropy(Fraction(1, 4)).value - expected) < ULP128


def test_entropy_domain():
    with pytest.raises(ValueError):
        bnd.entropy(Fraction(3, 2))
    with pytest.raises(ValueError):
        bnd.entropy(-0.25)


def test_entropy_symmetry_thousand_points():
    rng = random.Random(20240229)
    for _ in range(1000):
        x = Fraction(rng.randrange(0, 10 ** 9 + 1), 10 ** 9)
        assert bnd.entropy(x).value == bnd.entropy(1 - x).value


@given(st.fractions(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_entropy_symmetry_property(x):
    assert bnd.entropy(x).value == bnd.entropy(1 - x).value


def test_entropy_strictly_concave_spot():
    # midpoint above chord at a grid of triples
    for a, b in ((Fraction(1, 10), Fraction(3, 10)),
                 (Fraction(1, 4), Fraction(3, 4)),
                 (Fraction(2, 5), Fraction(9, 10))):
        mid = (a + b) / 2
        chord = (bnd.entropy(a).value + bnd.entropy(b).value) / 2
        assert bnd.entropy(mid).value > chord


def test_count_upper_examples():
    # 16 vertices, degree 4, t = 4: H(1/2)*8 + 2 = 10 bits
    assert abs(bnd.count_upper_log2(16, 4, 4) - 10) < ULP128
    q4 = count_by_size(graphs.hypercube(4))
    assert q4[4] <= 2 ** 10
    # t = 0 leaves only the |V|/(2d) term
    assert bnd.count_upper_log2(16, 4, 0) == mp.mpf(2)
    with pytest.raises(ValueError):
        bnd.count_upper_log2(16, 4, 9)


def test_count_upper_tight_on_knn_unions():
    # m disjoint copies of K_{d,d} at t = |V|/2 have exactly 2^m maximum
    # independent sets, and the bound H(1)|V|/2 + |V|/(2d) = m bits is hit
    # exactly: the additive |V|/(2d) term cannot be shrunk by any constant
    # factor below 1/2.
    for d in range(2, 9):
        for m in (1, 2, 3):
            g = graphs.disjoint_union(*(graphs.complete_bipartite(d, d)
                                        for _ in range(m)))
            seq = count_by_size(g)
            assert seq[m * d] == 2 ** m
            upper = bnd.count_upper_log2(g.n, d, m * d)
            assert upper == m
            assert bnd.count_upper_dominates(g.n, d, m * d, seq[m * d])


def test_count_lower_examples():
    assert bnd.count_lower_binomial(16, 4) == 70
    assert bnd.count_lower_binomial(16, 0) == 1
    assert abs(bnd.count_lower_binomial_log2(16, 4) - mp.log(70, 2)) < ULP128
    weak = bnd.count_lower_weak_log2(16, 4)
    assert weak == 6
    assert weak <= bnd.count_lower_binomial_log2(16, 4)


def test_partition_upper_regular_examples():
    # K_{d,d} at activity 1: bound 2^(d+1) equals exact + 1
    for d in range(2, 9):
        bound = bnd.partition_upper_regular_value(2 * d, d, 1)
        exact = polynomial_eval(count_by_size(graphs.complete_bipartite(d, d)), 1)
        assert bound == exact + 1
    # Q4 at activity 1: 1024 bits-value vs exact 743
    assert bnd.partition_upper_regular_value(16, 4, 1) == 1024
    assert bnd.partition_upper_regular_dominates(16, 4, 1, Fraction(743))
    # tiny activity: bound tends to |V|/(2d) bits, nonnegative
    assert bnd.partition_upper_regular_log2(16, 4, Fraction(1, 10 ** 9)) >= 2


def test_count_upper_via_partition_matches_closed_form():
    rng = random.Random(7)
    for _ in range(60):
        n_half = rng.randrange(2, 200)
        d = rng.randrange(1, 2 * n_half)
        t = rng.randrange(0, n_half + 1)
        a = bnd.count_upper_log2(2 * n_half, d, t)
        b = bnd.count_upper_via_partition_log2(2 * n_half, d, t)
        assert abs(a - b) <= 2 * ULP128 * max(1, abs(a)), (n_half, d, t)


def test_count_upper_via_partition_activity_is_optimal():
    for (nv, d, t) in ((64, 5, 10), (40, 3, 7), (128, 8, 30)):
        star = Fraction(2 * t, nv - 2 * t)
        at_star = bnd.count_upper_via_partition_log2(nv, d, t)
        for scale in (Fraction(9, 10), Fraction(11, 10)):
            assert bnd.count_upper_via_partition_log2(nv, d, t, star * scale) \
                >= at_star - ULP128


def test_count_upper_via_partition_t1_covers_vertex_count():
    for nv, d in ((16, 4), (64, 6), (200, 3)):
        assert bnd.count_upper_via_partition_log2(nv, d, 1) \
            >= mp.log(nv, 2) - ULP128


def test_c_of_lambda_branches():
    assert bnd.c_of_lambda(Fraction(1, 127)) == 256
    assert bnd.c_of_lambda(127) == 256
    assert bnd.c_of_lambda(1) == 256
    assert bnd.c_of_lambda(Fraction(1, 254)) == 2 * (1 + 254)
    assert bnd.c_of_lambda(254) == 2 * 255
    with pytest.raises(ValueError):
        bnd.c_of_lambda(0)


def test_partition_upper_almost_regular_examples():
    g = graphs.hypercube(4)
    b = bipartition(g)
    # balanced 4-regular at activity 1: n + 8n/d = 8 + 16 = 24 bits
    val = bnd.partition_upper_almost_regular_log2(g, b, 4, 1)
    assert abs(val - 24) < ULP128
    assert 2 ** 24 >= 743
    # activity 127: middle and upper branch agree
    low = bnd.partition_upper_almost_regular_log2(g, b, 4, Fraction(127))
    hi = bnd.partition_upper_almost_regular_log2(g, b, 4, Fraction(127))
    assert low == hi


def test_partition_bounds_dominate_on_corpus():
    for name, g, d in regular_bipartite_corpus():
        seq = count_by_size(g)
        b = bipartition(g)
        assert bnd.check_partition_dominance(g, b, d, seq) == [], name


def test_almost_regular_bound_other_degrees():
    # any positive reference degree gives a valid bound for bipartite graphs
    g = graphs.complete_bipartite(2, 3)
    b = bipartition(g)
    seq = count_by_size(g)
    for dd in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(3)):
            p = polynomial_eval(seq, lam)
            assert bnd.partition_upper_almost_regular_dominates(g, b, dd, lam, p)


def test_ctn_coefficient():
    assert bnd.ctn_coefficient(50, 100) == 8
    assert bnd.ctn_coefficient(Fraction(100, 256), 100) == mp.log(512, 2)
    assert bnd.ctn_coefficient(Fraction(255 * 100, 256), 100) == mp.log(512, 2)
    # breakpoints: branches agree
    assert bnd.ctn_coefficient(Fraction(100, 128), 100) == 8
    assert bnd.ctn_coefficient(Fraction(127 * 100, 128), 100) == 8
    with pytest.raises(ValueError):
        bnd.ctn_coefficient(0, 100)
    with pytest.raises(ValueError):
        bnd.ctn_coefficient(100, 100)


def test_c_epsilon():
    assert bnd.c_epsilon(Fraction(1, 10)) == 8
    assert bnd.c_epsilon(Fraction(1, 128)) == 8
    assert bnd.c_epsilon(Fraction(1, 512)) == mp.log(1024, 2)


def test_suff_condition_examples():
    assert not bnd.suff_condition_regular(100, 5, 7, 7)
    assert bnd.suff_condition_regular(1024, 32, 100, 200)
    assert not bnd.suff_condition_regular(1024, 4, 500, 501)


def test_suff_condition_engine_on_corpus():
    # wherever the sufficient condition fires, the exact counts must grow
    for name, g, d in regular_bipartite_corpus():
        seq = count_by_size(g)
        n = g.n // 2
        top = (9 * n) // 20  # floor(0.45 n), the epsilon = 0.1 interval
        for j in range(top + 1):
            for l in range(j + 1, top + 1):
                if bnd.suff_condition_regular(n, d, j, l):
                    assert seq[l] > seq[j], (name, j, l)


def test_step_bound_matches_all_pairs_scan():
    # the right-end gap scan must agree with an exhaustive pair scan
    for n, d, eps in ((24, 3, Fraction(1, 10)), (30, 5, Fraction(1, 2)),
                      (16, 2, Fraction(1, 4)), (40, 8, Fraction(1, 10))):
        s, _c = bnd.step_bound_regular(n, d, eps)
        edge = (1 - eps) * Fraction(n, 2)
        right = min(edge.numerator // edge.denominator, n)

        def all_pairs_ok(step):
            return all(bnd.suff_condition_regular(n, d, j, l)
                       for j in range(right + 1)
                       for l in range(j + step, right + 1))

        assert all_pairs_ok(s), (n, d, eps)
        if s > 1 and s <= right:
            assert not all_pairs_ok(s - 1), (n, d, eps)


def test_step_bound_examples():
    s, c = bnd.step_bound_regular(1024, 32, Fraction(1, 2))
    assert s >= 1
    assert abs(c - 1 / mp.log(3, 2)) < ULP128  # 1/H'(1/4) = 1/log2 3
    cap = c * (1024 / 32 + mp.log(2048, 2))
    assert s <= cap
    # doubling d cannot increase the step when the n/d term dominates
    s_lo, _ = bnd.step_bound_regular(1024, 8, Fraction(1, 2))
    s_hi, _ = bnd.step_bound_regular(1024, 16, Fraction(1, 2))
    assert s_hi <= s_lo
    s2, _ = bnd.step_bound_regular(64, 4, Fraction(1, 10))
    assert s2 >= 1


def test_bound_table_shape_and_serialization():
    g = graphs.hypercube(3)
    seq = count_by_size(g)
    table = bnd.build_bound_table(8, 3, seq)
    assert len(table.rows) == 5
    for row in table.rows:
        assert row.lower_log2 <= row.upper_log2
        assert row.exact_log2 is not None
        assert row.lower_log2 <= row.exact_log2 <= row.upper_log2
        assert set(row.tags) == {bnd.TAG_COUNT_LOWER, bnd.TAG_COUNT_UPPER}
    payload = table.to_json_dict()
    assert payload["n"] == 4 and payload["d"] == 3


def test_sandwich_clean_on_corpus():
    for name, g, d in regular_bipartite_corpus():
        seq = count_by_size(g)
        assert bnd.check_sandwich(g.n, d, seq) == [], name


def test_exact_comparators_agree_with_float_route():
    # wherever the 128-bit float comparison is decisive (margin above a few
    # ulps), the exact integer comparisons must agree with it
    margin = mp.mpf(2) ** -100
    for name, g, d in regular_bipartite_corpus()[:15]:
        seq = count_by_size(g)
        b = graphs.bipartition(g)
        n = g.n // 2
        for t in range(n + 1):
            it = seq[t] if t <= seq.alpha else 0
            if it == 0:
                continue
            float_upper = bnd.count_upper_log2(g.n, d, t)
            gap = float_upper - mp.log(it, 2)
            if abs(gap) > margin:
                assert bnd.count_upper_dominates(g.n, d, t, it) == (gap > 0), \
                    (name, t)
        for lam in (Fraction(1, 3), Fraction(1), Fraction(5)):
            p_exact = polynomial_eval(seq, lam)
            f_reg = bnd.partition_upper_regular_log2(g.n, d, lam) \
                - mp.log(mp.mpf(p_exact.numerator) / p_exact.denominator, 2)
            if abs(f_reg) > margin:
                assert bnd.partition_upper_regular_dominates(
                    g.n, d, lam, p_exact) == (f_reg > 0), (name, lam)
            f_alm = bnd.partition_upper_almost_regular_log2(g, b, d, lam) \
                - mp.log(mp.mpf(p_exact.numerator) / p_exact.denominator, 2)
            if abs(f_alm) > margin:
                assert bnd.partition_upper_almost_regular_dominates(
                    g, b, d, lam, p_exact) == (f_alm > 0), (name, lam)


def test_suff_condition_agrees_with_float_route():
    margin = mp.mpf(2) ** -100
    for (n, d) in ((12, 3), (50, 7), (128, 16), (1024, 32)):
        for j in range(0, n // 2, max(1, n // 16)):
            for l in range(j + 1, n // 2, max(1, n // 16)):
                lhs = bnd.entropy(Fraction(l, n)).value \
                    - bnd.entropy(Fraction(j, n)).value
                rhs = Fraction(1, d) + mp.log(2 * n, 2) / (2 * n)
                if abs(lhs - rhs) > margin:
                    assert bnd.suff_condition_regular(n, d, j, l) == \
                        (lhs > rhs), (n, d, j, l)
