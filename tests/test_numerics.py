import math
import os
import subprocess
import sys
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


@pytest.mark.parametrize("prec", [53, 160, 1000])
def test_log2_is_bit_identical_to_mp_log(prec):
    # exact powers of two take the exponent; odd multiples of them, whose
    # last bits a split log2(m) + k would move, go to mp.log
    with mp.workprec(prec):
        for k in range(-300, 301):
            for m in (1, 3, 5, 127, (1 << 90) + 1):
                x = mp.ldexp(m, k)
                assert numerics.log2(x)._mpf_ == mp.log(x, 2)._mpf_, (m, k)
        assert numerics.log2(mp.mpf(1))._mpf_ == mp.mpf(0)._mpf_
        assert numerics.log2(mp.ldexp(1, -300)) == -300


def test_mpf_from_edge_values():
    for q in (0, 1, -1, 2, -2, Fraction(0), Fraction(-3, 8), Fraction(1, 1 << 72000)):
        direct = mp.mpf(q.numerator) / q.denominator \
            if isinstance(q, Fraction) else mp.mpf(q)
        assert mpf_from(q)._mpf_ == direct._mpf_
    assert mpf_from(Fraction(1, 1 << 72000)) == mp.ldexp(1, -72000)


def test_log2_binom_matches_direct_conversion():
    # The reference is log2 of the exact integer binomial where it is small
    # enough to build, else the loggamma difference, each taken with
    # bitlen(n) + 64 extra bits and rounded to working precision.  The
    # loggamma difference at working precision is no reference: its three
    # terms cancel about bitlen(n) - bitlen(min(k, n - k)) leading bits.
    wp = mp.mp.prec
    for n, k in ((4096, 2048), (1 << 20, 3), (1 << 191, 1 << 189),
                 (1 << 127, 1), (1 << 127, 3), (1 << 1999, 1),
                 (1 << 1999, (1 << 1999) - 1)):
        with mp.workprec(wp + n.bit_length() + 64):
            if min(k, n - k) <= 3:
                ref = mp.log(mp.mpf(math.comb(n, k)), 2)
            else:
                ref = (mp.loggamma(mp.mpf(n) + 1) - mp.loggamma(mp.mpf(k) + 1)
                       - mp.loggamma(mp.mpf(n - k) + 1)) / mp.log(2)
        assert log2_binom(n, k)._mpf_ == (+ref)._mpf_, (n, k)
    # C(2^1999, 1) = C(2^1999, 2^1999 - 1) = 2^1999; the loggammas at
    # working precision gave 1.0 for the second
    assert log2_binom(1 << 1999, 1) == log2_binom(1 << 1999, (1 << 1999) - 1) \
        == 1999


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
    assert numerics.certified_ceil(lambda: mp.iv.e, "ceil(e)", Fraction(1)) == 3
    assert mp.iv.prec == saved


def test_escalation_tries_its_cap_last():
    # from the working 160 bits doubling reaches 10240, and the next
    # precision is the cap itself, not 20480; the undecided comparison is
    # a refusal like any other bad input
    precs = []

    def decide():
        precs.append(mp.iv.prec)

    with numerics.working_precision():
        with pytest.raises(ValueError, match=r"^x undecided at 16384 bits$"):
            numerics._escalate(decide, "x", 1)
    assert precs == [160 << k for k in range(7)] + [16384]


def test_escalation_message_names_a_huge_rational_by_size():
    # str() of a 4771-digit numerator would exceed CPython's default limit
    # on int-to-str conversion (4300 digits) and raise ValueError instead
    with pytest.raises(numerics.UndecidedComparison,
                       match=r"^ceil\(a 15850-bit / 101-bit rational \* e\) "
                             r"undecided at 16384 bits$"):
        numerics._escalate(lambda: None, "ceil({} * e)",
                           Fraction(3 ** 10000, 2 ** 100))
    with pytest.raises(numerics.UndecidedComparison,
                       match=r"^t = a 16990-bit integer undecided at 16384 "
                             r"bits$"):
        numerics._escalate(lambda: None, "t = {}", (1 << 16999) // 1000)


def _e_bounds(n=100):
    """Exact rationals lo < e < hi: the Taylor sum to 1/n! and its tail bound
    1/(n! n)."""
    lo, term = Fraction(0), Fraction(1)
    for k in range(n + 1):
        lo += term
        term /= k + 1
    return lo, lo + term * (n + 1) / n


def test_certified_ceil_next_to_integers():
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
                got = numerics.certified_ceil(
                    lambda: numerics.iv_from(q) * mp.iv.e, "ceil({} * e)", q)
                assert got == want, (bits, k, ulp)


def test_importing_every_module_leaves_mpmath_precision_alone():
    # a fresh interpreter's precisions, before and after importing the
    # package and each of its modules
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    code = ("import importlib, pkgutil, mpmath as mp\n"
            "print(mp.mp.prec, mp.iv.prec)\n"
            "import stableseq\n"
            "for module in pkgutil.iter_modules(stableseq.__path__):\n"
            "    importlib.import_module('stableseq.' + module.name)\n"
            "print(mp.mp.prec, mp.iv.prec)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.splitlines()
    assert after == before
