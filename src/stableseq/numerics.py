"""Shared exact-rational and high-precision numeric helpers.

Counting is always exact (Python ints / fractions.Fraction).  Transcendental
evaluations go through mpmath at a configurable mantissa width; one-sided
comparisons that involve a transcendental use interval arithmetic so that a
reported verdict never depends on rounding direction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

# Working mantissa width for transcendental evaluation.  Entropy differences
# near x = 1/2 are second-order small, so double precision is not enough at
# class sizes around 2**20.
DEFAULT_PRECISION_BITS = 128
_GUARD_BITS = 32


def set_precision(bits: int = DEFAULT_PRECISION_BITS) -> None:
    """Set the working precision (mantissa bits, guard bits added on top)."""
    if bits < 53:
        raise ValueError("precision below double precision is not supported")
    mp.mp.prec = bits + _GUARD_BITS
    mp.iv.prec = bits + _GUARD_BITS


set_precision()


def binom(n: int, k: int) -> int:
    """C(n, k) with the usual convention: 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _odd_part(n: int) -> tuple[int, int]:
    """(m, k) with n = m * 2**k and m odd; (0, 0) for n = 0."""
    if not n:
        return 0, 0
    k = (n & -n).bit_length() - 1
    return n >> k, k


def mpf_from(q) -> mp.mpf:
    """An int or Fraction as an mpf at working precision.

    A Fraction p/q is the numerator rounded to working precision, divided by
    q with a second rounding: the value of mp.mpf(p) / q.  The power-of-two
    factors of p and q are split off and applied afterwards with an exact
    binary shift, which leaves every bit of the result unchanged (rounding
    commutes with scaling by powers of two) and keeps mpmath from stripping
    trailing zero bits of a huge integer one byte at a time.
    """
    if isinstance(q, Fraction):
        num, num_shift = _odd_part(q.numerator)
        den, den_shift = _odd_part(q.denominator)
        return mp.ldexp(mp.mpf(num) / den, num_shift - den_shift)
    if isinstance(q, int):
        num, shift = _odd_part(q)
        return mp.ldexp(mp.mpf(num), shift)
    return mp.mpf(q)


def iv_from(q) -> mp.iv.mpf:
    """Enclosing interval for an int/Fraction."""
    if isinstance(q, Fraction):
        return mp.iv.mpf(q.numerator) / mp.iv.mpf(q.denominator)
    return mp.iv.mpf(q)


def log2_fraction(q: Fraction) -> mp.mpf:
    """log2 of a positive rational, as log2(p) - log2(q) of its numerator and
    denominator, each converted by mpf_from."""
    if q <= 0:
        raise ValueError("log2 of a non-positive rational")
    return mp.log(mpf_from(q.numerator), 2) - mp.log(mpf_from(q.denominator), 2)


def log2_binom(n: int, k: int) -> mp.mpf:
    """log2 C(n, k), usable for astronomically large n via loggamma."""
    if k < 0 or k > n:
        return mp.mpf("-inf")
    if n <= 4096:
        return mp.log(mpf_from(binom(n, k)), 2)
    ln = mp.loggamma(mpf_from(n) + 1) - mp.loggamma(mpf_from(k) + 1) \
        - mp.loggamma(mpf_from(n - k) + 1)
    return ln / mp.log(2)


def entropy_power(n: int, t: int) -> Fraction:
    """Exact value of 2**(n*H(t/n)) as a rational, H the binary entropy.

    Uses 2**(n*H(t/n)) = n**n / (t**t * (n-t)**(n-t)) for integer 0 <= t <= n,
    with the endpoint convention 0**0 = 1.
    """
    if not 0 <= t <= n:
        raise ValueError("t outside [0, n]")
    if t == 0 or t == n:
        return Fraction(1)
    return Fraction(n ** n, t ** t * (n - t) ** (n - t))


class UndecidedComparison(ArithmeticError):
    """An interval comparison stayed ambiguous after precision escalation."""


_MAX_PREC = 16384   # interval precision at which a comparison gives up


def _escalate(decide, what: str, arg: Fraction):
    """The first verdict other than None of decide() at the working interval
    precision, doubled up to _MAX_PREC bits; the precision is restored.
    what.format(arg) names the comparison if it stays undecided; a rational
    whose numerator or denominator has more than 64 bits is named by their
    bit lengths, which keeps the message short."""
    saved = mp.iv.prec
    try:
        prec = saved
        while prec <= _MAX_PREC:
            mp.iv.prec = prec
            verdict = decide()
            if verdict is not None:
                return verdict
            prec *= 2
        bits = arg.numerator.bit_length(), arg.denominator.bit_length()
        name = arg if max(bits) <= 64 else "a {}-bit / {}-bit rational".format(*bits)
        raise UndecidedComparison(
            f"{what.format(name)} undecided at {_MAX_PREC} bits")
    finally:
        mp.iv.prec = saved


def leq_exp_of(x: Fraction, exponent: Fraction) -> bool:
    """Certified test of x <= exp(exponent) for rationals x and exponent.

    Escalates interval precision until the comparison is decided.
    """
    if x <= 0:
        return True

    def decide():
        rhs = mp.iv.exp(iv_from(exponent))
        lhs = iv_from(x)
        if lhs.b <= rhs.a:
            return True
        if lhs.a > rhs.b:
            return False
        return None

    return _escalate(decide, "x vs exp({})", exponent)


def leq_scaled_exp(x: Fraction, scale: Fraction, exp_arg: int) -> bool:
    """Certified test of x <= scale * e**exp_arg (integer exp_arg >= 0).

    exp_arg == 0 is decided exactly in rational arithmetic; this matters
    because some of the checked inequalities are tight to equality.
    """
    if exp_arg == 0:
        return x <= scale
    if scale <= 0:
        return x <= 0
    return leq_exp_of(x / scale, Fraction(exp_arg))


def ceil_of_product_with_e(q: Fraction) -> int:
    """ceil(q * e) for rational q >= 0, certified by interval escalation.

    q * e is irrational for q > 0, so the ceiling is always well defined.
    """
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return 0

    def decide():
        prod = iv_from(q) * mp.iv.exp(mp.iv.mpf(1))
        # The endpoints are read as exact rationals.  Rounded to mp.prec,
        # both would land on an integer lying within about 2**-mp.prec of
        # the interval, and the ceiling could come out one too small.
        lo, hi = (-(-num // den) for num, den in
                  map(mp.libmp.to_rational, prod._mpi_))
        return lo if lo == hi else None

    return _escalate(decide, "ceil({} * e)", q)


def popcount(x: int) -> int:
    return x.bit_count()


def bits_of(mask: int):
    """Iterate set bit positions of a Python-int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
