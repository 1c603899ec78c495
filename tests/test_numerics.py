import math
from fractions import Fraction

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

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
