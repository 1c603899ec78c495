"""Closed-form bounds on independent-set counts and on the independence
polynomial, with certified comparisons against exact values.

Every bound-versus-exact comparison offered here is decided in exact integer
or rational arithmetic: rational exponents are cleared by raising both sides
to integer powers, and 2**(n*H(t/n)) is itself rational for integer t.  The
floating forms (128-bit mantissa by default) are for display and tables only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .exact import IndSetSequence, polynomial_eval
from .graphs import Bipartition, Graph
from .numerics import binom, entropy_power, log2_fraction, mpf_from


# ---------------------------------------------------------------------------
# Binary entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyValue:
    x: Fraction
    value: mp.mpf


def entropy(x) -> EntropyValue:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1].

    Endpoints return exactly 0 and H(1/2) returns exactly 1.  The argument is
    canonicalized to min(x, 1-x) before evaluation, so the symmetry
    H(x) = H(1-x) holds exactly, not merely to rounding.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("entropy argument outside [0, 1]")
    if x == 0 or x == 1:
        return EntropyValue(x, mp.mpf(0))
    if x == Fraction(1, 2):
        return EntropyValue(x, mp.mpf(1))
    y = min(x, 1 - x)
    yf = mpf_from(y)
    value = -(yf * mp.log(yf, 2) + (1 - yf) * mp.log(1 - yf, 2))
    return EntropyValue(x, value)


def entropy_derivative(x) -> mp.mpf:
    """H'(x) = log2((1-x)/x) for x in (0, 1)."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("derivative defined on (0, 1)")
    return mp.log(mpf_from((1 - x) / x), 2)


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
    h = entropy(Fraction(2 * t, nverts)).value
    return h * Fraction(nverts, 2) + mpf_from(Fraction(nverts, 2 * d))


def count_upper_dominates(nverts: int, d: int, t: int, value: int) -> bool:
    """Exact test value <= 2**(H(2t/|V|)|V|/2 + |V|/(2d)).

    Requires even |V|; both sides are then integer powers of rationals.
    """
    if nverts % 2:
        raise ValueError("exact form needs even |V|")
    n = nverts // 2
    r = entropy_power(n, t)  # 2**(n H(t/n)), rational
    # value <= r * 2^(n/d)  <=>  (value/r)^d <= 2^n
    return (Fraction(value) / r) ** d <= Fraction(2) ** n


def count_lower_binomial(nverts: int, t: int) -> int:
    """Lower bound C(|V|/2, t) for bipartite graphs: independent sets lying
    inside one class of a bipartition of an even-order graph."""
    if nverts % 2:
        raise ValueError("binomial lower bound stated for even |V|")
    if not 0 <= 2 * t <= nverts:
        raise ValueError("t outside [0, |V|/2]")
    return binom(nverts // 2, t)


def count_lower_binomial_log2(nverts: int, t: int) -> mp.mpf:
    return mp.log(mpf_from(count_lower_binomial(nverts, t)), 2)


def count_lower_weak_log2(nverts: int, t: int) -> mp.mpf:
    """Stirling-weakened form H(2t/|V|)|V|/2 - (1/2) log2 |V|, exposed for
    comparison; checkers use the exact binomial instead."""
    h = entropy(Fraction(2 * t, nverts)).value
    return h * Fraction(nverts, 2) - mp.log(mpf_from(nverts), 2) / 2


# ---------------------------------------------------------------------------
# Partition-function bounds
# ---------------------------------------------------------------------------

def partition_upper_regular_log2(nverts: int, d: int, lam) -> mp.mpf:
    """Upper bound, in bits, on P(G, lam) for d-regular G:
    |V|/(2d) + (|V|/2) log2(1 + lam)."""
    lam = Fraction(lam)
    if d < 1 or lam <= 0:
        raise ValueError("need d >= 1 and lam > 0")
    return mpf_from(Fraction(nverts, 2 * d)) \
        + Fraction(nverts, 2) * log2_fraction(1 + lam)


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


def count_upper_via_partition_log2(nverts: int, d: int, t: int,
                                   lam=None) -> mp.mpf:
    """Upper bound on the size-t count routed through the partition-function
    bound: log2(P-bound(lam) / lam**t), by default at lam = 2t/(|V| - 2t).

    Kept as an independent implementation for cross-validation; at the
    default lam it agrees with count_upper_log2 analytically.
    """
    if not 0 <= 2 * t <= nverts:
        raise ValueError("t outside [0, |V|/2]")
    if t == 0 or 2 * t == nverts:
        # limiting value of the optimized bound at the endpoints
        return mpf_from(Fraction(nverts, 2 * d))
    lam = Fraction(2 * t, nverts - 2 * t) if lam is None else Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required")
    return partition_upper_regular_log2(nverts, d, lam) - t * log2_fraction(lam)


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


def partition_upper_almost_regular_log2(g: Graph, b: Bipartition, d,
                                        lam) -> mp.mpf:
    """Upper bound, in bits, on P(G, lam) for bipartite G with defect
    h(G, d): n log2(1+lam) + n h(G,d) log2 C(lam), where 2n = |V|."""
    from .graphs import regularity_profile
    lam = Fraction(lam)
    prof = regularity_profile(g, b, d)
    n = prof.half_order
    return n * log2_fraction(1 + lam) \
        + n * prof.h_value * log2_fraction(c_of_lambda(lam))


def partition_upper_almost_regular_dominates(g: Graph, b: Bipartition, d,
                                             lam, value: Fraction) -> bool:
    """Exact domination test against (1+lam)**n * C(lam)**(n h).

    With n = |V|/2 and n*h = p/q rational, compare
    value**(2q) <= (1+lam)**(|V| q) * C(lam)**(2 p).
    """
    from .graphs import regularity_profile
    lam = Fraction(lam)
    prof = regularity_profile(g, b, d)
    nh = prof.half_order * prof.h_value
    q = nh.denominator
    p = nh.numerator
    lhs = Fraction(value) ** (2 * q)
    rhs = (1 + lam) ** (g.n * q) * c_of_lambda(lam) ** (2 * p)
    return lhs <= rhs


# ---------------------------------------------------------------------------
# Piecewise coefficient and sufficient conditions for coefficient growth
# ---------------------------------------------------------------------------

def ctn_coefficient(t, n) -> mp.mpf:
    """Piecewise coefficient multiplying n*h(G,d) in the almost-regular
    count bound: log2(2n/t) for t <= n/128, the constant 8 in the middle
    band, log2(2n/(n-t)) for t >= 127n/128.  Branches agree at the
    breakpoints; at an overlap the smaller value is returned."""
    t = Fraction(t)
    n = Fraction(n)
    if not 0 < t < n:
        raise ValueError("t must lie strictly between 0 and n")
    vals = []
    if t <= n / 128:
        vals.append(log2_fraction(2 * n / t))
    if n / 128 <= t <= 127 * n / 128:
        vals.append(mp.mpf(8))
    if t >= 127 * n / 128:
        vals.append(log2_fraction(2 * n / (n - t)))
    return min(vals)


def c_epsilon(eps) -> mp.mpf:
    """Least constant supported by the piecewise table over the range
    [eps*n, (1-eps)*n]: max(8, log2(2/eps))."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps in (0,1) required")
    if eps >= Fraction(1, 128):
        return mp.mpf(8)
    return log2_fraction(2 / eps)


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

TAG_COUNT_UPPER = "entropy-upper"
TAG_COUNT_LOWER = "binomial-lower"


@dataclass(frozen=True)
class BoundRow:
    t: int
    lower_log2: mp.mpf
    upper_log2: mp.mpf
    exact_log2: Optional[mp.mpf]
    tags: tuple[str, ...]


@dataclass(frozen=True)
class BoundTable:
    half_order: int          # n = |V|/2
    degree: int
    rows: tuple[BoundRow, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "n": self.half_order,
            "d": self.degree,
            "rows": [
                {
                    "t": r.t,
                    "lower_log2": mp.nstr(r.lower_log2, 18),
                    "upper_log2": mp.nstr(r.upper_log2, 18),
                    "exact_log2": (mp.nstr(r.exact_log2, 18)
                                   if r.exact_log2 is not None else None),
                    "tags": list(r.tags),
                }
                for r in self.rows
            ],
        }


def build_bound_table(nverts: int, d: int,
                      seq: Optional[IndSetSequence] = None) -> BoundTable:
    """Per-t lower/upper bounds in bits for a d-regular bipartite graph on
    nverts vertices, with exact log2 i_t columns when a sequence is given."""
    if nverts % 2:
        raise ValueError("bound table needs even |V|")
    n = nverts // 2
    rows = []
    for t in range(n + 1):
        lower = count_lower_binomial_log2(nverts, t)
        upper = count_upper_log2(nverts, d, t)
        exact = None
        if seq is not None:
            it = seq[t] if t <= seq.alpha else 0
            exact = mp.log(mpf_from(it), 2) if it > 0 else mp.mpf("-inf")
        rows.append(BoundRow(t=t, lower_log2=lower, upper_log2=upper,
                             exact_log2=exact,
                             tags=(TAG_COUNT_LOWER, TAG_COUNT_UPPER)))
    return BoundTable(half_order=n, degree=d, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exact sandwich / domination checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundViolation:
    kind: str
    t: Optional[int]
    lam: Optional[Fraction]
    detail: str


def check_sandwich(nverts: int, d: int, seq: IndSetSequence) -> list[BoundViolation]:
    """Exact check that C(|V|/2, t) <= i_t <= the entropy upper bound for
    every t up to |V|/2.  Empty list means no violation."""
    violations = []
    n = nverts // 2
    for t in range(n + 1):
        it = seq[t] if t <= seq.alpha else 0
        lower = count_lower_binomial(nverts, t)
        if it < lower:
            violations.append(BoundViolation(
                "lower", t, None, f"i_{t} = {it} < C({n},{t}) = {lower}"))
        if not count_upper_dominates(nverts, d, t, it):
            violations.append(BoundViolation(
                "upper", t, None, f"i_{t} = {it} exceeds entropy upper bound"))
    return violations


def check_partition_dominance(g: Graph, b: Bipartition, d: int,
                              seq: IndSetSequence,
                              lambdas=(Fraction(1, 4), Fraction(1, 2),
                                       Fraction(1), Fraction(2), Fraction(4)),
                              ) -> list[BoundViolation]:
    """Exact check that both partition-function bounds dominate P(G, lam)."""
    violations = []
    for lam in lambdas:
        lam = Fraction(lam)
        p_exact = polynomial_eval(seq, lam)
        if not partition_upper_regular_dominates(g.n, d, lam, p_exact):
            violations.append(BoundViolation(
                "partition-regular", None, lam,
                f"P(G,{lam}) = {p_exact} exceeds regular partition bound"))
        if not partition_upper_almost_regular_dominates(g, b, d, lam, p_exact):
            violations.append(BoundViolation(
                "partition-almost-regular", None, lam,
                f"P(G,{lam}) = {p_exact} exceeds almost-regular bound"))
    return violations
