import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from stableseq import cube_estimates as est, graphs, numerics
from stableseq.cube import NotApplicableError, small_set_scan
from stableseq.cube_estimates import (big_f, case_inequalities, case_scan,
                                      central_log2,
                                      consecutive_ratio_aux_holds,
                                      estimate_window, f_cut,
                                      lambda_of_t, linked_sum_bound_parts,
                                      linked_sum_dominates, range_tag,
                                      small_sum_dominates, small_sum_exponent,
                                      step_weight, step_weight_drop_bound)
from stableseq.exact import count_by_size
from stableseq.numerics import mpf_from

from util import (case_scan_by_definition, cli_json,
                  suffix_starts_by_definition)


def test_lambda_of_t():
    assert lambda_of_t(5, 8) == 1
    assert lambda_of_t(5, 4) == Fraction(1, 3)
    assert lambda_of_t(9, 1 << 7) == 1
    assert lambda_of_t(5, 0) == 0
    with pytest.raises(NotApplicableError):
        lambda_of_t(5, 16)


def test_estimates_do_not_import_the_cube_module():
    # the dependency runs one way, cube -> cube_estimates, and the exception
    # both raise is one class under both names
    assert NotApplicableError is est.NotApplicableError
    src = os.path.dirname(os.path.dirname(est.__file__))
    code = ("import sys, stableseq.cube_estimates; "
            "sys.exit('stableseq.cube' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src)).returncode == 0


def test_big_f_values():
    assert big_f(Fraction(3, 7), 0, 0) == 1
    for d, k in ((4, 1), (5, 2), (7, 3)):
        assert big_f(1, k, d * k) == Fraction(1, 2 ** (d * k))
    with pytest.raises(ValueError):
        big_f(1, -1, 0)


def test_activity_weight_identity_grid():
    # F at the matching activity collapses to a power of the density weight
    # over the class size
    checked = 0
    for d in range(3, 11):
        half = 1 << (d - 1)
        for t in {1, half // 4, half // 2, 3 * half // 4, half - 1}:
            if not 0 < t < half:
                continue
            lam = lambda_of_t(d, t)
            base = Fraction(t, half) * (1 - Fraction(t, half)) ** (d - 1)
            for k in range(1, 6):
                assert big_f(lam, k, d * k) == base ** k, (d, t, k)
                checked += 1
    assert checked >= 150


def test_density_weight_monotone_tail():
    # decreasing in t from (2^(d-1)-1)/(d-1) on, by adjacent differences
    for d in (8, 12):
        half = 1 << (d - 1)
        start = -((1 - half) // (d - 1))  # ceil((half-1)/(d-1))
        prev = None
        for t in range(start, half + 1):
            w = step_weight(d, t, t)
            if prev is not None:
                assert w <= prev, (d, t)
            prev = w


def test_f_cut_values():
    # density weight 1/2 at the quarter point: cutoff ceil(5^7 e / 2)
    for d in (10, 14, 20):
        assert f_cut(d, 1 << (d - 2)) == 106183
    assert f_cut(20, (1 << 19) - 1) == 20  # weight collapses near the top
    assert f_cut(6, 32) == 6
    # weight close to 1 at t = 1: the cutoff is the ceiling of 5^7 e
    assert f_cut(120, 1) == 212366


def test_f_cut_monotone_tail():
    d = 10
    half = 1 << (d - 1)
    start = -((1 - half) // (d - 1))
    values = [f_cut(d, t) for t in range(start, half)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_f_cut_against_exact_fractions():
    # oracle without intervals: e lies strictly between the Taylor sum to
    # 1/30! and that sum plus 2/31!, and that bracket is narrow enough to
    # fix ceil(5^7 e w) for the exact weight w at every t of d <= 12
    e_lo, term = Fraction(0), Fraction(1)
    for k in range(31):
        e_lo += term
        term /= k + 1
    e_hi = e_lo + 2 * term
    for d in range(2, 13):
        for t in range((1 << (d - 1)) + 1):
            q = 5 ** 7 * step_weight(d, t, t)
            lo, hi = math.ceil(q * e_lo), math.ceil(q * e_hi)
            assert lo == hi, (d, t)
            assert f_cut(d, t) == max(d, lo), (d, t)


def test_estimate_window_builds_no_exact_weight(monkeypatch):
    # the cutoff and the display factors come from (d, t) directly; the
    # exact weight t (1 - t/2^(d-1))^(d-1) is a Fraction of about d^2 bits.
    # Only range_tag's cube of a rational threshold is an exact power.
    def refuse(*args):
        raise AssertionError(f"step_weight{args} called")
    power = Fraction.__pow__

    def small_power(base, exponent, *rest):
        assert not isinstance(exponent, int) or abs(exponent) <= 3, exponent
        return power(base, exponent, *rest)
    monkeypatch.setattr(est, "step_weight", refuse)
    monkeypatch.setattr(Fraction, "__pow__", small_power)
    for d, t in ((5, 8), (9, 100), (12, 1), (40, 1 << 38), (64, 1 << 62),
                 (192, (1 << 191) // 10), (2000, (1 << 1999) * 537 // 1000)):
        for c in (1, Fraction(1, 4)):
            estimate_window(d, t, c)
        f_cut(d, t)


def test_small_sum_exponent_closed_form():
    for d in (4, 5, 10):
        assert small_sum_exponent(d, 1) == \
            Fraction(1, 2) + Fraction(4 * d * d, 2 ** d)
    # lam = 1/2 at d = 4: (1/4)(4/3)^4 + 16 (1/4)(9/4) 2^4 / (3/2)^8
    assert small_sum_exponent(4, Fraction(1, 2)) == \
        Fraction(1, 4) * Fraction(256, 81) + \
        Fraction(16, 4) * Fraction(9, 4) * 16 / (Fraction(3, 2) ** 8)


def test_small_sum_tail_dominated_by_first_term():
    # for fixed lam > 1 the second exponent term dies much faster in d
    lam = Fraction(2)
    for d in range(20, 41, 5):
        first = (lam / 2) * (2 / (1 + lam)) ** d
        second = small_sum_exponent(d, lam) - first
        assert second < first / 1000


def test_linked_bound_parts():
    e_pow, rational = linked_sum_bound_parts(5, Fraction(1, 2), 1)
    assert e_pow == 0
    assert rational == 32 * big_f(Fraction(1, 2), 1, 5)
    e_pow, rational = linked_sum_bound_parts(10, 1, 6)
    assert e_pow == 5
    assert rational == Fraction(10) ** 10 * 2 ** 10 * big_f(1, 6, 60 - 60)


def test_enumerated_sums_against_closed_forms():
    # the full-small-sum bound dominates the exact enumerated sum at desk
    # scale for every probed activity; the 2-linked bound dominates for the
    # component sizes whose comparisons are certified below
    for d in (4, 5):
        scan = small_set_scan(d)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            total = sum(c * big_f(lam, a, g) for (a, g, _l), c in scan.items())
            assert small_sum_dominates(d, lam, total), (d, lam)
            for k in (2, 6):
                linked_total = sum(c * big_f(lam, a, g)
                                   for (a, g, linked), c in scan.items()
                                   if linked and a >= k)
                assert linked_sum_dominates(d, lam, k, linked_total), (d, lam, k)


def test_linked_sum_exact_equality_case():
    # at d = 4, lam = 1/2, k = 1 the enumerated sum equals the bound exactly
    # (128/81); only an exact rational comparison can decide this correctly
    scan = small_set_scan(4)
    lam = Fraction(1, 2)
    total = sum(c * big_f(lam, a, g) for (a, g, linked), c in scan.items()
                if linked and a >= 1)
    _, bound = linked_sum_bound_parts(4, lam, 1)
    assert total == bound == Fraction(128, 81)
    assert linked_sum_dominates(4, lam, 1, total)


def test_error_factors_not_applicable_at_desk_scale():
    w = estimate_window(5, 8)
    assert w.e1 is None  # cutoff near 1e5 dwarfs t/2
    assert f_cut(5, 8) > 10 ** 5
    assert w.e2 is None


def test_error_factors_bracket_one_when_applicable():
    found = 0
    for d in (20, 40, 64, 100):
        half = 1 << (d - 1)
        for frac in (Fraction(1, 2), Fraction(5, 8), Fraction(11, 16),
                     Fraction(3, 4), Fraction(7, 8), Fraction(15, 16)):
            w = estimate_window(d, int(half * frac))
            ok1 = w.e1_reason is None
            ok2 = w.e2_reason is None
            if ok1:
                assert w.e1 < 1
            if ok2:
                assert w.e2 > 1
            if ok1 and ok2:
                assert w.e1 <= w.e2
                found += 1
    assert found >= 10


def test_window_never_empty_on_upper_range_grid():
    # E1 <= E2 wherever both factors are defined, on a 50-point grid over
    # the upper density window
    total = 0
    for d in (20, 40, 64, 100):
        half = 1 << (d - 1)
        lo = int(mp.ceil(half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)))
        both = 0
        for i in range(50):
            t = lo + round(i * (half - lo) / 49)
            if t > half:   # float rounding at d = 100; neither factor exists
                continue
            w = estimate_window(d, t)
            if w.e1_reason is None and w.e2_reason is None:
                assert w.e1 <= w.e2, (d, t)
                both += 1
        # the window narrows at small d: the three-quarters cap on the lower
        # factor meets a window floor already above 0.72 half at d = 20
        assert both >= 2, d
        total += both
    assert total >= 50


def test_e2_summand_ordering():
    # wherever the factor is defined with the mid-density cutoff (around
    # 1e5), the flat 3^-f term is negligible against the type-I term
    for d in (24, 30, 40):
        t = 1 << (d - 2)
        *_, parts, _reason = est._factors(d, t)
        assert parts["type2"] < (parts["type1"] - 1) / 10 ** 6
        assert parts["type2"] < parts["type3"] + parts["type1"]


def test_range_tag_classification():
    # the quarter point enters the upper window once 2 log2(d)/d clears
    # 1/sqrt(2) - 1/2: scan says exactly from d = 57 on
    flips = [d for d in range(10, 80)
             if range_tag(d, 1 << (d - 2)) == est.RANGE_DENSE]
    assert flips and flips[0] == 57 and flips == list(range(57, 80))
    assert range_tag(64, (1 << 63) - 1) == est.RANGE_DENSE
    assert range_tag(5, 8) == est.RANGE_BELOW
    assert range_tag(40, 1) == est.RANGE_BELOW
    assert range_tag(6, -1) == est.RANGE_DEGENERATE
    # the unpinned constant shifts the lower threshold
    assert range_tag(40, 1 << 33, c=Fraction(1, 10 ** 6)) == est.RANGE_SPARSE


def test_window_factors_near_one_at_top():
    d = 64
    t = (1 << 63) - 1
    w = estimate_window(d, t)
    assert w.tag == est.RANGE_DENSE
    # E2 - 1 here is dominated by d^4/2^(d-1), about 1.8e-12 at d = 64
    assert w.e2 is not None and abs(w.e2 - 1) < mp.mpf("1e-11")
    # the lower factor hands off to the trivial regime above (3/4) 2^(d-1)
    assert w.e1 is None and "trivial bound" in w.e1_reason


def test_estimate_window_at_small_d_reports_reasons(capsys):
    w = estimate_window(5, 8)
    assert w.e1 is None and w.e2 is None
    assert "not below t/2" in w.e1_reason
    assert w.f_cut == f_cut(5, 8)
    assert w.tag == est.RANGE_BELOW
    [payload] = cli_json(capsys, "cube-window", "--d", "5", "--t", "8")["rows"]
    assert payload["e1"] is None and payload["lambda"] == "1/1"


def test_estimate_window_endpoints_share_one_reason():
    # t = 0 and t = 2^(d-1) both lie outside the open range (0, 2^(d-1))
    # the activity lam needs, and say so with the same reason
    for d in (2, 5, 64):
        for t in (0, 1 << (d - 1)):
            w = estimate_window(d, t)
            assert w.lam is None and w.f_cut is None, (d, t)
            assert w.e1 is None and w.e2 is None, (d, t)
            assert w.e1_reason == w.e2_reason == "t outside (0, 2^(d-1))"


def test_central_value_matches_exact_binomial_form():
    # d small enough for the exact binomial path
    val = central_log2(5, 8)
    w = step_weight(5, 8, 8)
    expect = 1 + mp.log(math.comb(16, 8), 2) + \
        mp.mpf(w.numerator) / w.denominator / mp.log(2)
    assert abs(val - expect) < mp.mpf(2) ** -100


def test_case_inequalities_spot():
    v = case_inequalities(50)
    assert v["case2"]["holds"]
    assert v["case3"]["holds"]
    assert not v["case4"]["holds"]
    v = case_inequalities(2)
    assert v["case2"]["holds"] and v["case3"]["holds"] and v["case4"]["holds"]


def test_case_scan_golden():
    scan = case_scan(200)
    assert scan["case2"]["d0"] == 2
    assert scan["case3"]["d0"] == 2
    assert scan["case2"]["fails"] == [] and scan["case3"]["fails"] == []
    # the third closing inequality fails at every scanned dimension >= 14
    assert scan["case4"]["d0"] is None
    assert scan["case4"]["fails"] == list(range(14, 201))
    # scanned monotone-margin certificates for the two sound cases
    assert scan["case2"]["monotone_from"] is not None
    assert scan["case3"]["monotone_from"] is not None
    assert scan["case4"]["monotone_from"] is None


@pytest.mark.parametrize("d_max", [2, 3, 13, 14, 15, 37, 120, 200])
def test_case_scan_matches_suffix_definition(d_max):
    assert case_scan(d_max) == case_scan_by_definition(d_max)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=12))
def test_suffix_starts_match_definition(ms):
    # short runs of small margins: failures, ties and descents anywhere
    assert est._suffix_starts(ms) == suffix_starts_by_definition(ms)


def test_step_weight_and_drop_bound():
    assert step_weight(6, 8, 8) == 8 * Fraction(24, 32) ** 5
    # the bound dominates the true one-step drop on its validity range
    for d in (10, 16):
        half = 1 << (d - 1)
        for t in range(half // 4, half - 2, half // 8):
            drop = step_weight(d, t, t) - step_weight(d, t + 1, t + 1)
            assert drop <= step_weight_drop_bound(d, t), (d, t)
    with pytest.raises(NotApplicableError):
        step_weight_drop_bound(6, 31)


def test_consecutive_ratio_aux_on_case_ranges():
    # mid-range case: tolerance 0.76^d across the actual interval
    for d in (64, 100, 150):
        half = 1 << (d - 1)
        lo = int(half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)) + 1
        hi = int(half * (Fraction(1, 2) - Fraction(1, d))) - 1
        assert lo < hi
        for t in (lo, (lo + hi) // 2, hi):
            assert consecutive_ratio_aux_holds(d, t, "0.76^d"), (d, t)
    # top-range case: tolerance d^2/2^d
    for d in (64, 100):
        half = 1 << (d - 1)
        lo = int(half * (Fraction(1, 2) - Fraction(1, d)))
        hi = (1 << (d - 2)) - 15 * d * d - 1
        for t in (lo, (lo + hi) // 2, hi):
            assert consecutive_ratio_aux_holds(d, t, "d^2/2^d"), (d, t)


def test_consecutive_ratio_aux_paper_plugin_point_fails_midrange():
    # the worst-case plug-in point at one eighth of the cube lies below the
    # actual interval, and there the 0.76^d tolerance is numerically false
    # for moderate dimensions
    assert not consecutive_ratio_aux_holds(30, 1 << 27, "0.76^d")
    assert not consecutive_ratio_aux_holds(60, 1 << 57, "0.76^d")


def test_stirling_bracket():
    # 2 n^n e^-n sqrt(n) <= n! <= 3 n^n e^-n sqrt(n) for n = 1..60
    for n in range(1, 61):
        fact = mp.mpf(math.factorial(n))
        base = mp.mpf(n) ** n * mp.exp(-mp.mpf(n)) * mp.sqrt(n)
        assert 2 * base <= fact <= 3 * base, n


def test_estimate_window_refuses_nothing_silently():
    w = estimate_window(64, 1 << 62)
    assert w.e1 is not None and w.e2 is not None
    assert w.e1 <= 1 <= w.e2


def test_estimate_window_certifies_one_ceiling(monkeypatch):
    # the cutoff f is computed once per (d, t), whichever factors apply
    calls = []
    ceil = est.certified_ceil
    monkeypatch.setattr(est, "certified_ceil",
                        lambda *args: calls.append(args) or ceil(*args))
    for d, t in ((5, 8), (9, 100), (40, 1 << 38), (64, 1 << 62),
                 (64, (1 << 63) - 1)):
        calls.clear()
        estimate_window(d, t)
        assert len(calls) == 1, (d, t)


def test_e2_above_one_wherever_it_applies_at_small_d():
    # below d = 10 the type-III weight F_lam(6, 6d - 60) has a negative
    # second argument and stands for lam^6 (1 + lam)^(60 - 6d)
    applicable = {}
    for d in range(2, 12):
        half = 1 << (d - 1)
        for t in range(1, half):
            w = estimate_window(d, t)
            if w.e2_reason is not None:
                continue
            assert w.e2 > 1, (d, t)
            applicable[d] = applicable.get(d, 0) + 1
            lam = mp.mpf(t) / (half - t)
            x = mp.mpf(d * d * t * t) * 2 ** d / (half - t) ** 2 \
                * (1 - mp.mpf(t) / half) ** (2 * d - 2)
            type3 = 3 * mp.e ** 5 * mp.mpf(d) ** 10 * mp.mpf(2) ** (1.5 * d) \
                * lam ** 6 * (1 + lam) ** (60 - 6 * d) * mp.exp(x)
            *_, parts, _reason = est._factors(d, t)
            got = parts["type3"]
            assert abs(got / type3 - 1) < mp.mpf(10) ** -25, (d, t)
    assert sorted(applicable) == [8, 9, 10, 11]
    assert applicable[8] + applicable[9] == 54


def _exact_x(d, t):
    # the exact rational the window's x stands for
    half = 1 << (d - 1)
    return Fraction(d * d * t * t * 2 ** d, (half - t) ** 2) \
        * (1 - Fraction(t, half)) ** (2 * d - 2)


def _exact_type3_weight(d, t):
    # F_lam(6, 6d - 60) as lam^6 (1 + lam)^(60 - 6d), exactly
    lam = lambda_of_t(d, t)
    return lam ** 6 * (1 + lam) ** (60 - 6 * d)


def test_window_powers_agree_with_exact_fractions():
    # x and the type-III weight are evaluated at working precision without
    # their exact powers; both sign cases of 60 - 6d (d = 10, 11) included
    tol = mp.mpf(2) ** -(mp.mp.prec - 16)
    cases = []
    for d in list(range(2, 13)) + [64, 96, 192, 1000]:
        half = 1 << (d - 1)
        ts = {1, half // 3, half - 1}
        if d < 1000:   # an exact oracle at d = 1000 takes about a second
            ts |= {2, half // 3 + 1, half - 2}
        cases += [(d, t) for t in sorted(ts) if 0 < t < half]
    assert {t % 2 for d, t in cases if d == 1000} == {0, 1}
    for d, t in cases:
        for got, exact in ((est._x_term(d, t), _exact_x(d, t)),
                           (est._type3_weight(d, t),
                            _exact_type3_weight(d, t))):
            assert abs(got / mpf_from(exact) - 1) <= tol, (d, t)


def test_window_factors_keep_their_digits_at_huge_exponents(capsys):
    # here 3 f^2 / t and d^2 f^2 / 2^(d-1) are near 10^50; rounded to the
    # working precision before exp, they would be off by about 10^5 and
    # every printed digit of E1 and E2 wrong
    [w] = cli_json(capsys, "cube-window", "--d", "192",
                   "--t", str((1 << 191) // 10))["rows"]
    assert w["e1"] == ("3.02822897683493303e-6115646416056504723688976579634"
                       "0268866462505734045")
    assert w["e2"] == ("4.86853019929168477e+7514906316461666384093299011345"
                       "7141677154890642032000")
    # the reference is the same window at 2032 bits, in process; the
    # conftest fixture gives back the working precision afterwards
    for d in (150, 192, 256):
        ts = [(1 << (d - 1)) * k // 10 for k in (1, 3, 7)]
        argv = ["cube-window", "--d", str(d)]
        for t in ts:
            argv += ["--t", str(t)]
        got = cli_json(capsys, *argv)["rows"]
        mp.mp.prec = mp.iv.prec = 2032
        want = [estimate_window(d, t) for t in ts]
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert [g["e1"], g["e2"]] == [
                None if x is None else mp.nstr(x, 18) for x in (w.e1, w.e2)
            ], (d, g["t"])


def test_estimate_window_matches_f_cut_and_central_log2():
    for d, t in ((5, 8), (9, 100), (40, 1 << 38), (64, 1 << 62),
                 (64, (1 << 63) - 1), (192, 1 << 186)):
        w = estimate_window(d, t)
        assert w.central_log2 == central_log2(d, t)
        assert w.f_cut == f_cut(d, t)


def test_case_inequalities_equal_their_fraction_forms():
    # the docstring's inequalities, as Fractions, against the integer
    # numerators over 2^d and d^6
    for d in range(2, 201):
        pow2 = Fraction(2) ** d
        quarter = Fraction(2) ** (d - 2)
        half = Fraction(2) ** (d - 1)
        d2, d4 = Fraction(d) ** 2, Fraction(d) ** 4
        lhs2 = (1 - 14 * d2 / pow2) * (quarter + 5 * d4 + 1)
        rhs2 = (1 + 4 * d4 / pow2) * (quarter - 5 * d4)
        lhs3 = (1 + 2 / Fraction(d) ** 3) * (quarter - half / d + 1)
        rhs3 = (1 - 1 / Fraction(d) ** 5) * (quarter + half / d)
        lhs4 = (1 + 5 * d4 / pow2) * (quarter - 15 * d2 + 1)
        rhs4 = (1 - 14 * d2 / pow2) * (quarter + 15 * d2)
        assert case_inequalities(d) == {
            "case2": {"holds": lhs2 > rhs2, "margin": lhs2 - rhs2},
            "case3": {"holds": lhs3 < rhs3, "margin": rhs3 - lhs3},
            "case4": {"holds": lhs4 < rhs4, "margin": rhs4 - lhs4},
        }, d
    assert case_scan(200) == {
        "case2": {"d0": 2, "fails": [], "monotone_from": 18},
        "case3": {"d0": 2, "fails": [], "monotone_from": 2},
        "case4": {"d0": None, "fails": list(range(14, 201)),
                  "monotone_from": None},
    }


def test_case4_margin_closed_form():
    # criterion 8's case-4 margin in closed form: its leading term -5 d^4/4
    # is the 5 d^4/2^d error factor on the 2^(d-2) term, and the margin is
    # negative from d = 14 on
    for d in range(2, 2001):
        assert case_inequalities(d)["case4"]["margin"] == \
            Fraction(53 * d * d, 2) - Fraction(5 * d ** 4, 4) - 1 \
            + Fraction(75 * d ** 6 - 215 * d ** 4, 2 ** d), d


def test_range_tag_next_to_both_thresholds():
    # integers just below and just above each threshold, with the
    # thresholds computed far beyond the working precision; from d = 162 on
    # 160-bit floats no longer tell these integers apart
    checked = 0
    for d in (162, 163):
        half = 1 << (d - 1)
        for c in (Fraction(1), Fraction(1, 4)):
            with mp.workprec(d + 400):
                upper = half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)
                lower = half * mp.mpf(c.numerator) / c.denominator \
                    * mp.log(d, 2) / mp.cbrt(d)
                near = {int(mp.floor(upper)), int(mp.floor(lower))}
                ts = [t for t in sorted(near | {n + 1 for n in near})
                      if t <= half]
                want = [est.RANGE_DENSE if t >= upper else
                        est.RANGE_SPARSE if t >= lower else est.RANGE_BELOW
                        for t in ts]
            # classified at the working precision
            assert [range_tag(d, t, c) for t in ts] == want, (d, c, ts)
            checked += len(ts)
    assert checked >= 12
    # at d = 8, c = 1/4 the lower threshold is exactly 48: d t^3 equals
    # (c 2^(d-1) log2 d)^3 = 96^3
    assert range_tag(8, 48, Fraction(1, 4)) == est.RANGE_SPARSE
    assert range_tag(8, 47, Fraction(1, 4)) == est.RANGE_BELOW


def _near_thresholds(d, c):
    """The integers next to the upper and lower thresholds at (d, c), with
    the thresholds taken at d + 200 bits, inside [0, 2^(d-1)]."""
    half = 1 << (d - 1)
    with mp.workprec(d + 200):
        upper = half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)
        lower = half * mp.mpf(c.numerator) / c.denominator \
            * mp.log(d, 2) / mp.cbrt(d)
        near = {int(mp.floor(x)) + i for x in (upper, lower)
                for i in (-1, 0, 1, 2)}
    return {t for t in near if 0 <= t <= half}


def test_range_tag_float_filter_agrees_with_intervals(monkeypatch):
    # every tag, decided by the float filter where it may, equals the tag
    # decided by intervals alone; the grid is t = 0, t = 2^(d-1), random t
    # and the integers next to both thresholds, where the band sends the
    # comparison to intervals from about d = 40 on
    rng = random.Random(24)
    ds = sorted({*range(1, 41), *rng.sample(range(41, 2000), 12),
                 511, 512, 1000, 1999, 2000})
    cases = []
    for d in ds:
        half = 1 << (d - 1)
        for c in rng.sample([Fraction(1), Fraction(1, 4), Fraction(3),
                             Fraction(1, 10 ** 6)], 2 if d > 40 else 4):
            ts = {0, half, *(rng.randrange(half + 1) for _ in range(3))}
            cases += [(d, t, c) for t in sorted(ts | _near_thresholds(d, c))]
    filtered = [range_tag(d, t, c) for d, t, c in cases]
    monkeypatch.setattr(est, "_float_side", lambda x, y: None)
    assert filtered == [range_tag(d, t, c) for d, t, c in cases]
    assert len(cases) > 1000
    assert set(filtered) == {est.RANGE_DENSE, est.RANGE_SPARSE,
                             est.RANGE_BELOW}


def test_range_tag_escalates_only_inside_the_band(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return numerics.certified_leq(*args)
    monkeypatch.setattr(est, "certified_leq", counting)
    # far from both thresholds: floats decide, at any d
    half = 1 << 1999
    assert [range_tag(2000, t) for t in (1, half // 5, half // 2, half)] \
        == [est.RANGE_BELOW] * 2 + [est.RANGE_DENSE] * 2
    assert range_tag(40, 1 << 33, Fraction(1, 10 ** 6)) == est.RANGE_SPARSE
    assert calls == []
    # next to a threshold at d = 162: the comparison with it escalates
    for t in _near_thresholds(162, Fraction(1, 4)):
        calls.clear()
        range_tag(162, t, Fraction(1, 4))
        assert calls, t


def test_math_log2_within_range_tag_assumption():
    # range_tag's band takes math.log2 of an integer to be within 2^-44 of
    # log2 d, relative
    ds = [*range(2, 5000), *(3 ** k for k in range(8, 40)),
          *((1 << k) - 1 for k in range(13, 64))]
    with mp.workprec(120):
        for d in ds:
            exact = mp.log(d, 2)
            assert abs(math.log2(d) - exact) <= exact * 2.0 ** -44, d


@pytest.mark.parametrize("c", [Fraction(0), Fraction(-1, 4)])
def test_range_tag_refuses_a_non_positive_constant(c):
    # c <= 0 would open the lower window at or below t = 0
    with pytest.raises(ValueError, match="must be positive"):
        range_tag(12, 5, c)
    with pytest.raises(ValueError, match="must be positive"):
        range_tag(12, 0, c)


def test_transition_g_and_limit():
    assert est.transition_g(5, 8) == 0
    assert est.transition_g(5, 12) == Fraction(5, 4)
    limit0 = est.predicted_transition_limit(0)
    assert abs(limit0 - mp.exp(mp.mpf(1) / 2)) < mp.mpf(2) ** -100
    assert abs(est.predicted_transition_limit(40) - 1) < mp.mpf(1e-30)
    assert est.predicted_transition_limit(-3) > 100


def test_transition_ratio_qualitative_at_d5():
    seq = count_by_size(graphs.hypercube(5))
    ratio_log2 = est.transition_ratio_log2(5, 8, it=seq[8])
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
            assert est.transition_ratio_log2(d, t, it=seq[t]) >= 0, (d, t)
    # t = 0 double-counts the empty set: ratio is exactly 1/2
    assert est.transition_ratio_log2(4, 0, it=1) == -1


def test_transition_ratio_argument_validation():
    with pytest.raises(ValueError):
        est.transition_ratio_log2(4, 99, it=5)
