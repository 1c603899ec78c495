import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableseq import numerics
from stableseq.numerics import log2_binom, log2_fraction, mpf_from

# an odd part of up to 400 bits times a power of two up to 2^5000
odd_parts = st.integers(0, 1 << 400).map(lambda m: 2 * m + 1)
shifts = st.integers(0, 5000)
precisions = st.sampled_from([85, 160, 300])
numerators = st.one_of(
    st.just(0),
    st.builds(lambda m, k, s: s * (m << k), odd_parts, shifts,
              st.sampled_from([1, -1])))
denominators = st.builds(lambda m, k: m << k, odd_parts, shifts)


@settings(max_examples=300, deadline=None)
@given(numerators, denominators, precisions)
def test_mpf_from_is_bit_identical_to_direct_conversion(p, q, prec):
    r = Fraction(p, q)
    with mp.workprec(prec):
        assert mpf_from(r)._mpf_ == (mp.mpf(r.numerator) / r.denominator)._mpf_
        assert mpf_from(p)._mpf_ == mp.mpf(p)._mpf_
        assert mpf_from(q)._mpf_ == mp.mpf(q)._mpf_


@settings(max_examples=200, deadline=None)
@given(odd_parts, shifts, denominators, precisions)
def test_log2_fraction_is_bit_identical_to_direct_logs(m, k, q, prec):
    r = Fraction(m << k, q)
    with mp.workprec(prec):
        direct = mp.log(mp.mpf(r.numerator), 2) - mp.log(mp.mpf(r.denominator), 2)
        assert log2_fraction(r)._mpf_ == direct._mpf_


def test_mpf_from_edge_values():
    for q in (0, 1, -1, 2, -2, Fraction(0), Fraction(-3, 8), Fraction(1, 1 << 72000)):
        direct = mp.mpf(q.numerator) / q.denominator \
            if isinstance(q, Fraction) else mp.mpf(q)
        assert mpf_from(q)._mpf_ == direct._mpf_
    assert mpf_from(Fraction(1, 1 << 72000)) == mp.ldexp(1, -72000)


def test_log2_binom_matches_direct_conversion():
    for n, k in ((4096, 2048), (1 << 20, 3), (1 << 191, 1 << 189)):
        if n <= 4096:
            direct = mp.log(mp.mpf(math.comb(n, k)), 2)
        else:
            direct = (mp.loggamma(mp.mpf(n) + 1) - mp.loggamma(mp.mpf(k) + 1)
                      - mp.loggamma(mp.mpf(n - k) + 1)) / mp.log(2)
        assert log2_binom(n, k)._mpf_ == direct._mpf_


def test_escalation_gives_up_at_its_cap_and_restores_precision():
    # a rational within 2^-20000 of e: no interval below the 16384-bit cap
    # separates it from exp(1)
    with mp.workprec(20100):
        man, exp = mp.mpf(mp.e).man_exp
    x = Fraction(man, 1 << -exp)
    saved = mp.iv.prec
    with pytest.raises(numerics.UndecidedComparison,
                       match=r"^x vs exp\(1\) undecided at 16384 bits$"):
        numerics.leq_exp_of(x, Fraction(1))
    assert mp.iv.prec == saved
    assert numerics.leq_exp_of(Fraction(2718, 1000), Fraction(1))
    assert not numerics.leq_exp_of(Fraction(2719, 1000), Fraction(1))
    assert numerics.ceil_of_product_with_e(Fraction(1)) == 3
    assert mp.iv.prec == saved


def test_escalation_message_names_a_huge_rational_by_size():
    # str() of a 4771-digit numerator would exceed CPython's default limit
    # on int-to-str conversion (4300 digits) and raise ValueError instead
    with pytest.raises(numerics.UndecidedComparison,
                       match=r"^ceil\(a 15850-bit / 101-bit rational \* e\) "
                             r"undecided at 16384 bits$"):
        numerics._escalate(lambda: None, "ceil({} * e)",
                           Fraction(3 ** 10000, 2 ** 100))


def _e_bounds(n=100):
    """Exact rationals lo < e < hi: the Taylor sum to 1/n! and its tail bound
    1/(n! n)."""
    lo, term = Fraction(0), Fraction(1)
    for k in range(n + 1):
        lo += term
        term /= k + 1
    return lo, lo + term * (n + 1) / n


def test_ceil_of_product_with_e_next_to_integers():
    # q is k/e rounded to `bits` bits, moved by one unit in the last place:
    # q*e is within about 2^-bits of k, so rounding the interval endpoints to
    # the working precision would make both equal to k
    e_lo, e_hi = _e_bounds()
    for bits in (200, 400):
        for k in (1, 7, 100, 12345):
            with mp.workprec(bits):
                man, exp = (mp.mpf(k) / mp.e).man_exp
            for ulp in (-1, 1):
                q = Fraction(man + ulp, 1 << -exp)
                want = math.floor(q * e_lo) + 1
                assert want == math.ceil(q * e_hi)
                assert numerics.ceil_of_product_with_e(q) == want, (bits, k, ulp)
