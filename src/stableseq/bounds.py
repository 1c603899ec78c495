"""Closed-form bounds on independent-set counts and on the independence
polynomial, with certified comparisons against exact values.

Every bound-versus-exact comparison offered here is decided in exact integer
or rational arithmetic: rational exponents are cleared by raising both sides
to integer powers, and 2**(n*H(t/n)) is itself rational for integer t.  The
floating forms (128-bit mantissa by default) are for display and tables only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .exact import IndSetSequence
from .numerics import entropy_power, log2, log2_fraction, mpf_from


# ---------------------------------------------------------------------------
# Binary entropy
# ---------------------------------------------------------------------------

def entropy(x) -> mp.mpf:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1].

    Endpoints return exactly 0 and H(1/2) returns exactly 1.  The argument is
    canonicalized to min(x, 1-x) before evaluation, so the symmetry
    H(x) = H(1-x) holds exactly, not merely to rounding.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("entropy argument outside [0, 1]")
    if x == 0 or x == 1:
        return mp.mpf(0)
    if x == Fraction(1, 2):
        return mp.mpf(1)
    y = min(x, 1 - x)
    yf = mpf_from(y)
    return -(yf * log2(yf) + (1 - yf) * log2(1 - yf))


def entropy_derivative(x) -> mp.mpf:
    """H'(x) = log2((1-x)/x) for x in (0, 1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("derivative defined on (0, 1)")
    return log2(mpf_from((1 - x) / x))


# ---------------------------------------------------------------------------
# Count bounds for d-regular graphs
# ---------------------------------------------------------------------------

def count_upper_log2(nverts: int, d: int, t: int) -> mp.mpf:
    """Upper bound, in bits, on the number of size-t independent sets of a
    d-regular graph: H(2t/|V|) * |V|/2 + |V|/(2d)."""
    if d < 1:
        raise ValueError("d >= 1 required")
    if not 0 <= 2 * t <= nverts:
        raise ValueError("t outside [0, |V|/2]")
    h = entropy(Fraction(2 * t, nverts))
    return h * Fraction(nverts, 2) + mpf_from(Fraction(nverts, 2 * d))


def count_upper_dominates(n: int, d: int, power: Fraction, value: int) -> bool:
    """Exact test value <= power * 2**(n/d) on |V| = 2n vertices, where
    power = 2**(n H(t/n)) = entropy_power(n, t) is rational: the entropy
    upper bound on i_t, cleared to (value/power)**d <= 2**n."""
    return (Fraction(value) / power) ** d <= Fraction(2) ** n


def count_lower_binomial(nverts: int, t: int) -> int:
    """Lower bound C(|V|/2, t) for bipartite graphs: independent sets lying
    inside one class of a bipartition of an even-order graph."""
    if nverts % 2:
        raise ValueError("binomial lower bound stated for even |V|")
    if not 0 <= 2 * t <= nverts:
        raise ValueError("t outside [0, |V|/2]")
    return math.comb(nverts // 2, t)


def count_lower_binomial_log2(nverts: int, t: int) -> mp.mpf:
    return log2(mpf_from(count_lower_binomial(nverts, t)))


# ---------------------------------------------------------------------------
# Partition-function bounds
# ---------------------------------------------------------------------------

def partition_upper_regular_value(nverts: int, d: int, lam) -> Optional[Fraction]:
    """Exact rational value 2**(|V|/(2d)) * (1+lam)**(|V|/2) when both
    exponents are integers, else None."""
    lam = Fraction(lam)
    e1, r1 = divmod(nverts, 2 * d)
    e2, r2 = divmod(nverts, 2)
    if r1 or r2:
        return None
    return Fraction(2) ** e1 * (1 + lam) ** e2


def partition_upper_regular_dominates(nverts: int, d: int, lam,
                                      value: Fraction) -> bool:
    """Exact test value <= 2**(|V|/2d) (1+lam)**(|V|/2), cleared to integer
    powers: value**(2d) <= 2**|V| * (1+lam)**(|V| d)."""
    lam = Fraction(lam)
    return Fraction(value) ** (2 * d) <= Fraction(2) ** nverts * (1 + lam) ** (nverts * d)


def c_of_lambda(lam) -> Fraction:
    """Piecewise constant for the almost-regular partition bound:
    2(1 + 1/lam) below 1/127, 256 in the middle band, 2(1 + lam) above 127.
    The branches agree at both breakpoints."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required")
    if lam <= Fraction(1, 127):
        return 2 * (1 + 1 / lam)
    if lam <= 127:
        return Fraction(256)
    return 2 * (1 + lam)


def partition_upper_log2(nverts: int, d, h: Fraction,
                         lam) -> tuple[mp.mpf, mp.mpf]:
    """Both upper bounds, in bits, on P(G, lam) for bipartite G on
    nverts = 2n vertices with defect h = h(G, d): the regular bound
    n/d + n log2(1 + lam), valid for d-regular G, and the almost-regular
    bound n log2(1 + lam) + n h log2 C(lam).  n log2(1 + lam) is evaluated
    once for both."""
    lam = Fraction(lam)
    if d < 1 or lam <= 0:
        raise ValueError("need d >= 1 and lam > 0")
    n = Fraction(nverts, 2)
    shared = n * log2_fraction(1 + lam)
    return (mpf_from(Fraction(nverts, 2 * d)) + shared,
            shared + n * h * log2_fraction(c_of_lambda(lam)))


def partition_upper_almost_regular_dominates(nverts: int, h: Fraction, lam,
                                             value: Fraction) -> bool:
    """Exact domination test against (1+lam)**n * C(lam)**(n h), for
    bipartite G on nverts = 2n vertices with defect h = h(G, d).

    With n*h = p/q rational, compare
    value**(2q) <= (1+lam)**(|V| q) * C(lam)**(2 p).
    """
    lam = Fraction(lam)
    nh = Fraction(nverts, 2) * h
    q = nh.denominator
    p = nh.numerator
    lhs = Fraction(value) ** (2 * q)
    rhs = (1 + lam) ** (nverts * q) * c_of_lambda(lam) ** (2 * p)
    return lhs <= rhs


# ---------------------------------------------------------------------------
# Sufficient conditions for coefficient growth
# ---------------------------------------------------------------------------

def suff_condition_regular(n: int, d: int, j: int, l: int) -> bool:
    """Sufficient condition for i_l(G) > i_j(G) on a 2n-vertex d-regular
    bipartite graph: H(l/n) - H(j/n) > 1/d + log2(2n)/(2n).

    Decided exactly: with R_t = 2**(n H(t/n)) rational, the condition is
    (R_l / R_j)**(2d) > 2**(2n) * (2n)**d.
    """
    if not (0 <= j <= n and 0 <= l <= n):
        raise ValueError("indices outside [0, n]")
    if j == l:
        return False
    r_j = entropy_power(n, j)
    r_l = entropy_power(n, l)
    lhs = (r_l / r_j) ** (2 * d)
    rhs = Fraction(2) ** (2 * n) * Fraction(2 * n) ** d
    return lhs > rhs


def step_bound_regular(n: int, d: int, epsilon) -> tuple[int, mp.mpf]:
    """Smallest s such that the sufficient condition holds for every pair
    j < l in [0, floor((1-eps)n/2)] with l - j >= s, found by scanning gaps
    at the right end of the interval (concavity of H puts the worst pair
    there), together with the constant C(eps) = 1/H'((1-eps)/2) of the
    analytic step size.

    Returns (s, C(eps)); s = R + 1 when even the widest pair fails, which
    makes the property vacuous.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon in (0,1) required")
    edge = (1 - epsilon) * Fraction(n, 2)
    right = min(edge.numerator // edge.denominator, n)
    c_eps = 1 / entropy_derivative((1 - epsilon) / 2)
    s = right + 1
    for gap in range(1, right + 1):
        if suff_condition_regular(n, d, right - gap, right):
            s = gap
            break
    return max(s, 1), c_eps


# ---------------------------------------------------------------------------
# Bound tables
# ---------------------------------------------------------------------------

# Activities at which the partition-function bounds are checked when the
# caller names none.
DEFAULT_ACTIVITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
                      Fraction(4))

TAG_COUNT_UPPER = "entropy-upper"
TAG_COUNT_LOWER = "binomial-lower"


@dataclass(frozen=True)
class BoundRow:
    t: int
    lower_log2: mp.mpf
    upper_log2: mp.mpf
    exact_log2: mp.mpf
    tags: tuple[str, ...]


def build_bound_table(nverts: int, d: int,
                      seq: IndSetSequence) -> tuple[BoundRow, ...]:
    """Per-t lower/upper bounds in bits for a d-regular bipartite graph on
    nverts vertices, beside the exact log2 i_t of its sequence seq.  Row
    n - t takes its bounds from row t: C(n, t) = C(n, n - t), and entropy
    canonicalises x to min(x, 1 - x), so both are the same numbers."""
    if nverts % 2:
        raise ValueError("bound table needs even |V|")
    n = nverts // 2
    rows = []
    for t in range(n + 1):
        if 2 * t <= n:
            lower = count_lower_binomial_log2(nverts, t)
            upper = count_upper_log2(nverts, d, t)
        else:
            lower, upper = rows[n - t].lower_log2, rows[n - t].upper_log2
        it = seq[t] if t <= seq.alpha else 0
        exact = log2(mpf_from(it)) if it > 0 else mp.mpf("-inf")
        rows.append(BoundRow(t=t, lower_log2=lower, upper_log2=upper,
                             exact_log2=exact,
                             tags=(TAG_COUNT_LOWER, TAG_COUNT_UPPER)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Exact sandwich / domination checkers
# ---------------------------------------------------------------------------

def check_sandwich(nverts: int, d: int, seq: IndSetSequence) -> list[str]:
    """Exact check that C(|V|/2, t) <= i_t <= the entropy upper bound for
    every t up to |V|/2, as one message per violation; an empty list means
    none.  C(n, t) and 2**(n H(t/n)) are symmetric in t and n - t, so each
    pair shares one evaluation."""
    if nverts % 2:
        raise ValueError("sandwich check needs even |V|")
    violations = []
    n = nverts // 2
    halves = [(math.comb(n, t), entropy_power(n, t))
              for t in range(n // 2 + 1)]
    for t in range(n + 1):
        it = seq[t] if t <= seq.alpha else 0
        lower, power = halves[min(t, n - t)]
        if it < lower:
            violations.append(f"i_{t} = {it} < C({n},{t}) = {lower}")
        if not count_upper_dominates(n, d, power, it):
            violations.append(f"i_{t} = {it} exceeds entropy upper bound")
    return violations


def check_partition_dominance(nverts: int, d: int, h: Fraction,
                              values) -> list[str]:
    """Exact check that both partition-function bounds dominate P(G, lam),
    for bipartite G on nverts vertices with defect h = h(G, d), at each
    pair (lam, P(G, lam)) of values; one message per violation."""
    violations = []
    for lam, p_exact in values:
        lam = Fraction(lam)
        if not partition_upper_regular_dominates(nverts, d, lam, p_exact):
            violations.append(
                f"P(G,{lam}) = {p_exact} exceeds regular partition bound")
        if not partition_upper_almost_regular_dominates(nverts, h, lam, p_exact):
            violations.append(
                f"P(G,{lam}) = {p_exact} exceeds almost-regular bound")
    return violations
