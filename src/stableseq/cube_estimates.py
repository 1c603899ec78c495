"""Analytic estimates for the hypercube count sequence: the matching
activity lam(t), the weight function F_lam(a, g), the enumeration cutoff
f(d, t), closed-form upper bounds on weighted sums over small sets, the
multiplicative error factors E1 (lower) and E2 (upper) around the central
value 2 C(2**(d-1), t) exp(t (1 - t/2**(d-1))**(d-1)), the density-window
classification, the transition ratio of exact counts to the one-sided
binomial, and the exact closing inequalities of the four-case monotonicity
argument.

A rational that decides a verdict stays an exact Fraction: the case
margins, the dominance tests and the reasons a factor does not apply.  The
verdicts and the integer of the estimate window (the density-window tag and
the cutoff f_cut) are certified in interval arithmetic from (d, t), with
escalating precision; the tag takes intervals only where floats with a
proven error bound cannot decide it (see range_tag).  Factors that are
only displayed (the terms of E1 and E2 and the central value) are
evaluated in floating point, without forming their exact powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .numerics import (certified_ceil, certified_leq, iv_from, leq_exp_of,
                       leq_scaled_exp, log2, log2_binom, mpf_from)

RANGE_DENSE = "range123"      # upper density window, t/2^(d-1) above 1 - 1/sqrt(2)
RANGE_SPARSE = "range4"       # lower window where only near-matching bounds hold
RANGE_BELOW = "below"         # below the classification threshold
RANGE_DEGENERATE = "degenerate"


class NotApplicableError(ValueError):
    """A formula's validity conditions fail at the requested parameters."""


def _complement(d: int, t: int) -> int:
    """u = 2**(d-1) - t; raises ValueError unless 0 <= t <= 2**(d-1)."""
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    return half - t


def lambda_of_t(d: int, t: int) -> Fraction:
    """Activity matching density t: lam(t) = t / (2**(d-1) - t)."""
    u = _complement(d, t)
    if u == 0:
        raise NotApplicableError("lam(t) has a pole at t = 2^(d-1)")
    return Fraction(t, u)


def big_f(lam, a: int, g: int) -> Fraction:
    """Weight of a set of size a with neighborhood size g:
    F_lam(a, g) = lam**a * (1 + lam)**(-g)."""
    lam = Fraction(lam)
    if a < 0 or g < 0:
        raise ValueError("a, g must be nonnegative")
    return lam ** a / (1 + lam) ** g


def f_cut(d: int, t: int) -> int:
    """Integer enumeration cutoff: ceil(max(d, 5**7 e w)) with w the density
    weight t (1 - t/2**(d-1))**(d-1) of (d, t).  The ceiling is certified by
    interval escalation from 5**7 t u**(d-1) 2**(-(d-1)**2) e,
    u = 2**(d-1) - t, whose power of two is exact at any precision.  The
    weight vanishes at both endpoints (for d > 1), where the interval is
    exactly 0 and the cutoff degenerates to d; elsewhere 5**7 e w is
    irrational, so the escalation settles."""
    u = _complement(d, t)
    iv = mp.iv
    return max(d, certified_ceil(
        lambda: iv.mpf(5 ** 7 * t) * iv.mpf(u) ** (d - 1)
        * iv.mpf(2) ** (-(d - 1) ** 2) * iv.e,
        f"ceil(5^7 e w) at d = {d}, t = {{}}", t))


# ---------------------------------------------------------------------------
# Closed-form upper bounds on weighted sums over small sets
# ---------------------------------------------------------------------------

def small_sum_exponent(d: int, lam) -> Fraction:
    """Exact exponent X such that the weighted sum of F_lam over all small
    subsets of one class is at most exp(X):
    X = (lam/2) (2/(1+lam))**d + d**2 lam**2 (1+lam)**2 2**d / (1+lam)**(2d).

    The inequality is imported from prior work and is only guaranteed for
    lam above a threshold of order log(d)/d**(1/3) with an unspecified
    constant; callers decide range policy.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required")
    return (lam / 2) * (2 / (1 + lam)) ** d \
        + d * d * lam ** 2 * (1 + lam) ** 2 * 2 ** d / (1 + lam) ** (2 * d)


def small_sum_dominates(d: int, lam, total: Fraction) -> bool:
    """Certified test: total <= exp(small_sum_exponent(d, lam))."""
    return leq_exp_of(Fraction(total), small_sum_exponent(d, lam))


def linked_sum_bound_parts(d: int, lam, k: int) -> tuple[int, Fraction]:
    """The bound on the weighted sum of F_lam over small 2-linked subsets of
    size at least k, split as e**(k-1) times an exact rational:
    e**(k-1) * d**(2k-2) * 2**d * F_lam(k, kd - 2k(k-1)).

    Returns (k - 1, rational part); k = 1 makes the bound itself rational,
    which matters because the comparison can be tight to equality.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    lam = Fraction(lam)
    # the F-shaped factor is evaluated directly: its second argument
    # k d - 2k(k-1) can go negative at small d, where it simply becomes a
    # positive power of (1 + lam)
    shape = lam ** k * (1 + lam) ** (-(k * d - 2 * k * (k - 1)))
    rational = Fraction(d) ** (2 * k - 2) * 2 ** d * shape
    return k - 1, rational


def linked_sum_dominates(d: int, lam, k: int, total: Fraction) -> bool:
    """Certified test: total <= e**(k-1) * rational part.  Exact rational
    comparison when k = 1."""
    e_pow, rational = linked_sum_bound_parts(d, lam, k)
    return leq_scaled_exp(Fraction(total), rational, e_pow)


# ---------------------------------------------------------------------------
# Error factors around the central value
# ---------------------------------------------------------------------------

def central_log2(d: int, t: int) -> mp.mpf:
    """log2 of the central value 2 C(2**(d-1), t) exp(density weight)."""
    return 1 + log2_binom(1 << (d - 1), t) + _weight(d, t) / mp.ln2


def _weight(d: int, t: int) -> mp.mpf:
    """The density weight w = t (1 - t/2^(d-1))^(d-1) at working precision,
    as t u^(d-1) / 2^((d-1)^2), u = 2^(d-1) - t."""
    u = _complement(d, t)
    return mp.ldexp(mp.mpf(t) * mp.power(mp.mpf(u), d - 1), -(d - 1) ** 2)


def _x_term(d: int, t: int) -> mp.mpf:
    """x = d^2 t^2 2^d / (2^(d-1) - t)^2 * (1 - t/2^(d-1))^(2d-2) at working
    precision, as d^2 t^2 2^d u^(2d-4) / 2^((d-1)(2d-2)), u = 2^(d-1) - t."""
    u = (1 << (d - 1)) - t
    return mp.ldexp(mp.mpf(d * d * t * t) * mp.power(mp.mpf(u), 2 * d - 4),
                    d - (d - 1) * (2 * d - 2))


def _type3_weight(d: int, t: int) -> mp.mpf:
    """F_lam(6, 6d-60) = lam^6 (1+lam)^(60-6d) at working precision, as
    t^6 u^(6d-66) 2^((d-1)(60-6d)), u = 2^(d-1) - t; the exponent of u is
    negative below d = 11."""
    u = (1 << (d - 1)) - t
    return mp.ldexp(mp.mpf(t ** 6) * mp.power(mp.mpf(u), 6 * d - 66),
                    (d - 1) * (60 - 6 * d))


def _factors(d: int, t: int) -> tuple:
    """Both error factors at (d, t) from one cutoff f = f_cut(d, t), as
    (lam, f, E1, E1 reason, E2 summands, E2 reason); a factor is None where
    its validity conditions fail, and its reason None where they hold.

    Both need 0 < t < 2**(d-1) for the activity lam.  The factors are
    display values: the density weight w, x and the type-III weight are
    evaluated without their exact powers.  Each applicable factor is
    evaluated with as many extra bits as its largest exp argument has
    integer bits (3 f^2 / t for E1, d^2 f^2 / 2^(d-1) for E2), so the
    argument's rounding error stays below about 2^-prec and the printed
    digits hold at any exponent.  Wherever E2 applies and x exceeds 1,
    d^2 f^2 / 2^(d-1) is over 10^9 times x (as f >= 5^7 e w), so the last
    bits of x do not show in the printed E2.

    Lower factor E1 = exp(-3 f**2 / t) * E0 with E0 = 1 - 2 (e w / f)**f
    exp(-w): i_t(Q_d) >= central * E1.  It needs
    t <= (3/4) 2**(d-1) (above that the trivial bound replaces it), f < t/2
    (no overlap in the doubled one-sided sum), and
    f <= (2**(d-1) - t)/(2d) (product-to-exponential steps).

    Upper factor E2 = type-I + type-II + type-III: i_t(Q_d) <= central * E2,
    with x = d^2 t^2 2^d / (2^(d-1)-t)^2 * (1-t/2^(d-1))^(2d-2) and

    type-I:   exp(x + d^2 f^2 / 2^(d-1))
    type-II:  3**(-f)
    type-III: 3 e^5 d^10 2^(3d/2) F_lam(6, 6d-60) exp(x)

    where F_lam(6, 6d-60) is evaluated as lam^6 (1+lam)^(60-6d), a positive
    power of (1 + lam) below d = 10.  It needs d f <= 2**(d-2), so the
    correction-factor estimate for sets of size up to f stays valid.
    """
    half = 1 << (d - 1)
    if not 0 < t < half:
        reason = "t outside (0, 2^(d-1))"
        return None, None, None, reason, None, reason
    lam = lambda_of_t(d, t)
    f = f_cut(d, t)
    e1 = parts = None
    if 4 * t > 3 * half:
        reason1 = "t above (3/4) 2^(d-1); trivial bound regime"
    elif 2 * f >= t:
        reason1 = f"f = {f} not below t/2"
    elif 2 * d * f > half - t:
        reason1 = f"f = {f} above (2^(d-1) - t)/(2d)"
    else:
        reason1 = None
        with mp.extraprec((3 * f * f // t).bit_length()):
            w = _weight(d, t)
            e0 = 1 - 2 * (mp.e * w / f) ** f * mp.exp(-w)
            e1 = mp.exp(mp.mpf(-3) * f * f / t) * e0
    if d * f > half // 2:
        reason2 = f"d f = {d * f} above 2^(d-2)"
    else:
        reason2 = None
        with mp.extraprec((d * d * f * f // half).bit_length()):
            x = _x_term(d, t)
            parts = {
                "type1": mp.exp(x + mpf_from(Fraction(d * d * f * f, half))),
                "type2": mp.power(3, -mpf_from(f)),
                "type3": 3 * mp.e ** 5 * mp.mpf(d) ** 10
                * mp.power(2, mp.mpf(3 * d) / 2)
                * _type3_weight(d, t) * mp.exp(x),
            }
    return lam, f, e1, reason1, parts, reason2


# ---------------------------------------------------------------------------
# Density-window classification and the estimate window
# ---------------------------------------------------------------------------

_DENSE_BASE = 1 - math.sqrt(0.5)    # 1 - 1/sqrt(2), within 2^-51 relative
_BAND = 2.0 ** -36                  # relative half-width of range_tag's band


def _float_side(x: float, y: float) -> Optional[bool]:
    """Whether x >= y, from floats each within 2^-41 of its value relative:
    True above y (1 + _BAND), False below y (1 - _BAND), None between."""
    if x >= y * (1 + _BAND):
        return True
    if x <= y * (1 - _BAND):
        return False
    return None


def range_tag(d: int, t: int, c=Fraction(1)) -> str:
    """Classify t against the two density windows.

    Upper window: 2**(d-1)(1 - 1/sqrt(2) + 2 log2(d)/d) <= t <= 2**(d-1).
    Lower window: 2**(d-1) c log2(d)/d**(1/3) <= t < the upper threshold.
    The constant c is a configuration parameter, not a derived quantity; it
    must be positive (ValueError otherwise).

    Each comparison is first made in floats, from the ratio r = t/2**(d-1)
    (int true division: correctly rounded, and no overflow at any d): r
    against 1 - 1/sqrt(2) + 2 log2(d)/d, and r**3 d against (c log2 d)**3.
    Each IEEE operation and int-to-float conversion is within 2^-53 of its
    value, relative, and math.log2 is taken to be within 2^-44 (2^8 units
    in the last place; the tests check it against mpmath).  The worst side,
    (c log2 d)**3, triples the error of the log and adds six roundings:
    3 * 2^-44 + 6 * 2^-53 < 2^-41 relative.  So where the two floats differ
    by more than the band, a relative half-width of 2^-36, the float
    comparison has the sign of the exact one.  The lower side is filtered
    only for 2^-300 < c < 2^300, which keeps (c log2 d)**3 above 2^-900
    and below overflow: an r, r**2 or r**3 below 2^-1022, where rounding
    is absolute, then errs by less than 2^-1000, far inside the band.

    Inside the band the comparison is certified by interval escalation.
    The upper threshold is irrational (log2(d) is an integer or
    transcendental), so escalation settles it.  The lower one is decided as
    d t^3 >= (c 2^(d-1) log2(d))^3: exactly when d is a power of two, where
    the two sides can be equal, and by escalation otherwise.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"the density-window constant c must be positive, "
                         f"not {c}")
    half = 1 << (d - 1)
    if t < 0 or t > half:
        return RANGE_DEGENERATE
    iv = mp.iv
    r = t / half
    log2_d = math.log2(d)

    def upper():
        return iv.mpf(half) * (1 - 1 / iv.sqrt(2)
                               + 2 * iv.log(d) / (iv.ln2 * d))

    def lower_cubed():
        return (iv_from(c) * half * iv.log(d) / iv.ln2) ** 3

    dense = _float_side(r, _DENSE_BASE + 2 * log2_d / d)
    if dense is None:
        dense = certified_leq(
            upper, lambda: iv.mpf(t),
            f"t = {{}} against the upper threshold at d = {d}", t)
    if dense:
        return RANGE_DENSE
    k = d.bit_length() - 1
    if d == 1 << k:     # log2(d) = k
        sparse = d * t ** 3 >= (c * half * k) ** 3
    else:
        sparse = None
        if abs(c.numerator.bit_length() - c.denominator.bit_length()) < 300:
            w = c.numerator / c.denominator * log2_d
            sparse = _float_side(r * r * r * d, w * w * w)
        if sparse is None:
            n = d * t ** 3
            sparse = certified_leq(
                lower_cubed, lambda: iv.mpf(n),
                f"d t^3 = {{}} against the lower threshold at d = {d}", n)
    return RANGE_SPARSE if sparse else RANGE_BELOW


@dataclass(frozen=True)
class CubeEstimate:
    d: int
    t: int
    lam: Optional[Fraction]
    central_log2: mp.mpf
    f_cut: Optional[int]
    e1: Optional[mp.mpf]
    e1_reason: Optional[str]
    e2: Optional[mp.mpf]
    e2_reason: Optional[str]
    tag: str


def estimate_window(d: int, t: int, c=Fraction(1)) -> CubeEstimate:
    """Central value with the multiplicative window [E1, E2] where the
    factors apply, plus the density-window tag.  Inapplicable factors are
    reported with their reasons instead of numbers."""
    lam, f, e1, reason1, parts, reason2 = _factors(d, t)
    e2 = (parts["type1"] + parts["type2"] + parts["type3"]
          if parts is not None else None)
    return CubeEstimate(d=d, t=t, lam=lam, central_log2=central_log2(d, t),
                        f_cut=f, e1=e1, e1_reason=reason1, e2=e2,
                        e2_reason=reason2, tag=range_tag(d, t, c))


# ---------------------------------------------------------------------------
# Hypercube transition ratio
# ---------------------------------------------------------------------------

def transition_g(d: int, t: int) -> Fraction:
    """Window coordinate g with t = 2**(d-1) (1/2 + g/d)."""
    return Fraction(d) * (Fraction(t, 1 << (d - 1)) - Fraction(1, 2))


def transition_ratio_log2(d: int, t: int, it: int) -> mp.mpf:
    """log2 of i_t(Q_d) / (2 C(2**(d-1), t)), from the exact count it."""
    if not 0 <= t <= 1 << (d - 1):
        raise ValueError("t outside [0, 2^(d-1)]")
    return log2(mpf_from(it)) - 1 - log2_binom(1 << (d - 1), t)


def predicted_transition_limit(g) -> mp.mpf:
    """Predicted limiting ratio exp(e**(-2g) / 2) for the window coordinate
    g; tends to 1 as g -> +inf and diverges as g -> -inf."""
    gf = mpf_from(Fraction(g)) if not isinstance(g, (float, mp.mpf)) else mp.mpf(g)
    return mp.exp(mp.exp(-2 * gf) / 2)


# ---------------------------------------------------------------------------
# Four-case monotonicity argument: exact closing inequalities
# ---------------------------------------------------------------------------

def step_weight(d: int, a: int, b: int) -> Fraction:
    """h(a, b) = a (1 - b/2**(d-1))**(d-1), the two-argument weight used in
    the consecutive-ratio comparisons."""
    half = 1 << (d - 1)
    return a * (1 - Fraction(b, half)) ** (d - 1)


def step_weight_drop_bound(d: int, t: int) -> Fraction:
    """Upper bound h(t,t) * 2(d-1)/(2**(d-1)-t) on the one-step drop
    h(t,t) - h(t+1,t+1); only stated for 2**(d-1) - t >= 2."""
    half = 1 << (d - 1)
    if half - t < 2:
        raise NotApplicableError("drop bound needs 2^(d-1) - t >= 2")
    return step_weight(d, t, t) * Fraction(2 * (d - 1), half - t)


def case_inequalities(d: int) -> dict[str, dict]:
    """Exact verdicts of the three closing rational inequalities of the
    four-case argument at dimension d.

    decreasing-onset (case 2):
        (1 - 14 d^2/2^d)(2^(d-2) + 5 d^4 + 1) > (1 + 4 d^4/2^d)(2^(d-2) - 5 d^4)
    increasing-mid (case 3):
        (1 + 2/d^3)(2^(d-2) - 2^(d-1)/d + 1) < (1 - 1/d^5)(2^(d-2) + 2^(d-1)/d)
    increasing-top (case 4):
        (1 + 5 d^4/2^d)(2^(d-2) - 15 d^2 + 1) < (1 - 14 d^2/2^d)(2^(d-2) + 15 d^2)

    Each entry reports holds plus the exact margin (favorable side minus
    unfavorable side).
    """
    if d < 2:
        raise ValueError("d >= 2 required")
    # each margin is an integer over 2^d (cases 2 and 4) or d^6 (case 3)
    pow2, quarter, half = 1 << d, 1 << (d - 2), 1 << (d - 1)
    d2, d4 = d * d, d ** 4
    num2 = (pow2 - 14 * d2) * (quarter + 5 * d4 + 1) \
        - (pow2 + 4 * d4) * (quarter - 5 * d4)
    num3 = (d ** 5 - 1) * (d * quarter + half) \
        - d2 * (d ** 3 + 2) * (d * quarter - half + d)
    num4 = (pow2 - 14 * d2) * (quarter + 15 * d2) \
        - (pow2 + 5 * d4) * (quarter - 15 * d2 + 1)

    return {
        "case2": {"holds": num2 > 0, "margin": Fraction(num2, pow2)},
        "case3": {"holds": num3 > 0, "margin": Fraction(num3, d ** 6)},
        "case4": {"holds": num4 > 0, "margin": Fraction(num4, pow2)},
    }


def case_scan(d_max: int) -> dict[str, dict]:
    """Scan the closing inequalities over [2, d_max].

    Per case: the least d0 such that the inequality holds for every d in
    [d0, d_max] (None when no such d0 exists), the list of failing d, and a
    scanned monotonicity certificate: the least dimension from which the
    margin is positive and nondecreasing through d_max (None when never).
    Scanned facts, not proofs.
    """
    names = ("case2", "case3", "case4")
    margins = {name: [] for name in names}
    for d in range(2, d_max + 1):
        verdicts = case_inequalities(d)
        for name in names:
            margins[name].append(verdicts[name]["margin"])
    out = {}
    for name in names:
        ms = margins[name]
        fails = [2 + i for i, m in enumerate(ms) if not m > 0]
        d0, mono_from = (None if i is None else 2 + i
                         for i in _suffix_starts(ms))
        out[name] = {"d0": d0, "fails": fails, "monotone_from": mono_from}
    return out


def _suffix_starts(ms: list) -> tuple[Optional[int], Optional[int]]:
    """The least i with every ms[i:] positive, and the least i with ms[i:]
    also nondecreasing; None when there is none.  A suffix of a suffix with
    either property has it too, so one backward pass finds both: the first
    stops at the last nonpositive entry, the second also at the last
    descent."""
    last = len(ms) - 1
    positive = monotone = None
    for i in range(last, -1, -1):
        if not ms[i] > 0:
            break
        positive = i
        if i == last or (monotone == i + 1 and ms[i] <= ms[i + 1]):
            monotone = i
    return positive, monotone


def consecutive_ratio_aux_holds(d: int, t: int, tol_spec: str) -> bool:
    """Certified check of exp(h(t,t) - h(t+1,t+1)) <= 1 + tol at one (d, t),
    with tol given as "0.76^d" or "d^2/2^d".  The drop is an exact rational,
    so this is an interval comparison of exp(rational) against a rational."""
    half = 1 << (d - 1)
    if t + 1 > half:
        raise ValueError("t + 1 beyond 2^(d-1)")
    drop = step_weight(d, t, t) - step_weight(d, t + 1, t + 1)
    if tol_spec == "0.76^d":
        tol = Fraction(76, 100) ** d
    elif tol_spec == "d^2/2^d":
        tol = Fraction(d * d, 2 ** d)
    else:
        raise ValueError("unknown tolerance spec")
    if drop <= 0:
        return True
    # exp(drop) is irrational for rational drop > 0, so never equals 1 + tol
    return not leq_exp_of(1 + tol, drop)
