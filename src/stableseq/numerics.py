"""Shared exact-rational and high-precision numeric helpers.

Counting is always exact (Python ints / fractions.Fraction).  Transcendental
evaluations go through mpmath; one-sided comparisons that involve a
transcendental use interval arithmetic so that a reported verdict never
depends on rounding direction.

The command line and percolation.run_experiment run at WORKING_BITS, under
working_precision.  Every other function computes at the caller's mpmath
precision, and importing the package changes neither mp.mp.prec nor
mp.iv.prec.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction

import mpmath as mp

# Working precision for transcendental evaluation: a 128-bit mantissa plus
# 32 guard bits.  Entropy differences near x = 1/2 are second-order small,
# so double precision is not enough at class sizes around 2**20.
WORKING_BITS = 160
_MAX_PREC = 16384   # interval precision at which a comparison gives up


@contextlib.contextmanager
def working_precision():
    """Set mp.mp.prec and mp.iv.prec to WORKING_BITS for the body (or, as a
    decorator, the call) and give back the caller's values afterwards;
    mp.iv has no workprec of its own."""
    saved = mp.mp.prec, mp.iv.prec
    mp.mp.prec = mp.iv.prec = WORKING_BITS
    try:
        yield
    finally:
        mp.mp.prec, mp.iv.prec = saved


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


def log2(x: mp.mpf) -> mp.mpf:
    """log2 of a positive mpf, bit for bit the value of mp.log(x, 2).  An
    exact power of two 2**k, 1 included, is its exponent k: mpmath takes
    the quotient of two logs at 20 extra bits, which rounds back to k.
    Anything else goes to mp.log.  Splitting 2**k off a general x would
    not do: log2(m) + k differs from mp.log(m * 2**k, 2) in the last bits."""
    sign, man, exp, _bc = x._mpf_
    if man == 1 and not sign:
        return mp.mpf(exp)
    return mp.log(x, 2)


def log2_fraction(q: Fraction) -> mp.mpf:
    """log2 of a positive rational, as log2(p) - log2(q) of its numerator and
    denominator, each converted by mpf_from."""
    if q <= 0:
        raise ValueError("log2 of a non-positive rational")
    return log2(mpf_from(q.numerator)) - log2(mpf_from(q.denominator))


def log2_binom(n: int, k: int) -> mp.mpf:
    """log2 C(n, k), usable for astronomically large n via loggamma.

    Above n = 4096 the three loggammas are each about n ln n, while their
    difference is about m ln(n/m), m = min(k, n - k), so about
    bitlen(n) - bitlen(m) leading bits cancel.  The difference is taken with
    that many extra bits, plus bitlen(bitlen(n)) + 8 for the ln n factor and
    the rounding, and rounded back to working precision."""
    if k < 0 or k > n:
        return mp.mpf("-inf")
    if n <= 4096:
        return log2(mpf_from(binom(n, k)))
    m = min(k, n - k)
    if m == 0:
        return mp.mpf(0)
    bits = n.bit_length()
    with mp.extraprec(bits - m.bit_length() + bits.bit_length() + 8):
        ln = mp.loggamma(mpf_from(n) + 1) - mp.loggamma(mpf_from(k) + 1) \
            - mp.loggamma(mpf_from(n - k) + 1)
        value = ln / mp.ln2
    return +value


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


def _escalate(decide, what: str, arg):
    """The first verdict other than None of decide() at the working interval
    precision, doubled up to _MAX_PREC bits; the precision is restored.
    what.format(arg) names the comparison if it stays undecided; an int or
    Fraction arg whose numerator or denominator has more than 64 bits is
    named by its bit lengths, which keeps the message short."""
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
        if max(bits) <= 64:
            name = arg
        elif arg.denominator == 1:
            name = f"a {bits[0]}-bit integer"
        else:
            name = "a {}-bit / {}-bit rational".format(*bits)
        raise UndecidedComparison(
            f"{what.format(name)} undecided at {_MAX_PREC} bits")
    finally:
        mp.iv.prec = saved


def certified_leq(lhs, rhs, what: str, arg) -> bool:
    """Certified test of lhs() <= rhs() for zero-argument callables that
    return intervals at the current mp.iv.prec, by interval escalation;
    what and arg name the comparison if it stays undecided (see _escalate).
    It settles whenever the two values differ."""
    def decide():
        a, b = lhs(), rhs()
        if a.b <= b.a:
            return True
        if a.a > b.b:
            return False
        return None

    return _escalate(decide, what, arg)


def certified_ceil(value, what: str, arg) -> int:
    """Certified ceiling of value(), a zero-argument callable that returns an
    interval at the current mp.iv.prec, by interval escalation; what and arg
    name it if it stays undecided (see _escalate).  It settles whenever the
    value is not an integer."""
    def decide():
        # The endpoints are read as exact rationals.  Rounded to mp.prec,
        # both would land on an integer lying within about 2**-mp.prec of
        # the interval, and the ceiling could come out one too small.
        lo, hi = (-(-num // den) for num, den in
                  map(mp.libmp.to_rational, value()._mpi_))
        return lo if lo == hi else None

    return _escalate(decide, what, arg)


def leq_exp_of(x: Fraction, exponent: Fraction) -> bool:
    """Certified test of x <= exp(exponent) for rationals x and exponent."""
    if x <= 0:
        return True
    return certified_leq(lambda: iv_from(x),
                         lambda: mp.iv.exp(iv_from(exponent)),
                         "x vs exp({})", exponent)


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
