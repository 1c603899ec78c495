"""Analytic estimates for the hypercube count sequence: the matching
activity lam(t), the weight function F_lam(a, g), the enumeration cutoff
f(d, t), closed-form upper bounds on weighted sums over small sets, the
multiplicative error factors E1 (lower) and E2 (upper) around the central
value 2 C(2**(d-1), t) exp(t (1 - t/2**(d-1))**(d-1)), the density-window
classification, and the exact closing inequalities of the four-case
monotonicity argument.

Everything that can be rational is computed as a Fraction; transcendental
values use the configured working precision with interval arithmetic for
one-sided verdicts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .numerics import (ceil_of_product_with_e, leq_exp_of,
                       leq_scaled_exp, log2_fraction, mpf_from)
from .cube import NotApplicableError

SCAN_LIMIT_DEFAULT = 200

RANGE_DENSE = "range123"      # upper density window, t/2^(d-1) above 1 - 1/sqrt(2)
RANGE_SPARSE = "range4"       # lower window where only near-matching bounds hold
RANGE_BELOW = "below"         # below the classification threshold
RANGE_DEGENERATE = "degenerate"


def lambda_of_t(d: int, t: int) -> Fraction:
    """Activity matching density t: lam(t) = t / (2**(d-1) - t)."""
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    if t == half:
        raise NotApplicableError("lam(t) has a pole at t = 2^(d-1)")
    return Fraction(t, half - t)


def big_f(lam, a: int, g: int) -> Fraction:
    """Weight of a set of size a with neighborhood size g:
    F_lam(a, g) = lam**a * (1 + lam)**(-g)."""
    lam = Fraction(lam)
    if a < 0 or g < 0:
        raise ValueError("a, g must be nonnegative")
    return lam ** a / (1 + lam) ** g


def big_f_log2(lam, a: int, g: int) -> mp.mpf:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required for the log form")
    return a * log2_fraction(lam) - g * log2_fraction(1 + lam)


def density_weight(d: int, t: int) -> Fraction:
    """The recurring exact weight t (1 - t/2**(d-1))**(d-1)."""
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    return t * (1 - Fraction(t, half)) ** (d - 1)


def f_cut(d: int, t: int) -> int:
    """Integer enumeration cutoff: ceil(max(d, 5**7 e w)) with w the density
    weight of (d, t); the ceiling is certified by interval arithmetic.  The
    weight vanishes at both endpoints, where the cutoff degenerates to d."""
    w = density_weight(d, t)
    second = ceil_of_product_with_e(5 ** 7 * w)
    return max(d, second)


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


def activity_below_threshold(d: int, lam, c) -> bool:
    """True when lam <= c log2(d)/d**(1/3), the regime where the small-sum
    bounds carry no guarantee."""
    lam_f = mpf_from(Fraction(lam))
    return lam_f <= mpf_from(Fraction(c)) * mp.log(d, 2) / mp.cbrt(d)


def _warn_below_threshold(d: int, lam, c) -> None:
    if c is not None and activity_below_threshold(d, lam, c):
        warnings.warn(
            f"activity {lam} is below the guaranteed range "
            f"c log2(d)/d^(1/3) at d = {d} with c = {c}; the bound value is "
            "reported but carries no guarantee there", RuntimeWarning,
            stacklevel=3)


def small_sum_bound_log2(d: int, lam, c=None) -> mp.mpf:
    """log2 of the closed-form bound exp(small_sum_exponent).  Passing the
    threshold constant c triggers a warning outside the guaranteed range."""
    _warn_below_threshold(d, lam, c)
    return mpf_from(small_sum_exponent(d, lam)) / mp.log(2)


def small_sum_dominates(d: int, lam, total: Fraction) -> bool:
    """Certified test: total <= exp(small_sum_exponent(d, lam))."""
    return leq_exp_of(Fraction(total), small_sum_exponent(d, lam),
                      max_prec=8192)


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


def linked_sum_bound_log2(d: int, lam, k: int, c=None) -> mp.mpf:
    _warn_below_threshold(d, lam, c)
    e_pow, rational = linked_sum_bound_parts(d, lam, k)
    return e_pow / mp.log(2) + log2_fraction(rational)


def linked_sum_dominates(d: int, lam, k: int, total: Fraction) -> bool:
    """Certified test: total <= e**(k-1) * rational part.  Exact rational
    comparison when k = 1."""
    e_pow, rational = linked_sum_bound_parts(d, lam, k)
    return leq_scaled_exp(Fraction(total), rational, e_pow)


def partition_asymptotic_display_log2(d: int, lam) -> mp.mpf:
    """Display evaluator for the leading asymptotic form of the hypercube
    partition function at activity lam:

        log2( 2 (1+lam)**(2**(d-1)) * exp((lam/2) (2/(1+lam))**d) ).

    The true value carries an extra (1 + o(1)) inside the exponential that
    this display omits; nothing here is a bound.  At lam = 1 the leading
    constant tends to 2 sqrt(e) in front of the power of two.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required")
    exponent = (lam / 2) * (2 / (1 + lam)) ** d
    return 1 + (1 << (d - 1)) * log2_fraction(1 + lam) \
        + mpf_from(exponent) / mp.log(2)


# ---------------------------------------------------------------------------
# Error factors around the central value
# ---------------------------------------------------------------------------

def central_log2(d: int, t: int) -> mp.mpf:
    """log2 of the central value 2 C(2**(d-1), t) exp(density weight)."""
    from .numerics import log2_binom
    half = 1 << (d - 1)
    return 1 + log2_binom(half, t) + mpf_from(density_weight(d, t)) / mp.log(2)


def e1_applicability(d: int, t: int) -> Optional[str]:
    """Validity conditions of the lower-bound factor; None when applicable.

    Needs t <= (3/4) 2**(d-1) (above that the trivial bound replaces it),
    f < t/2 (no overlap in the doubled one-sided sum), and
    f <= (2**(d-1) - t)/(2d) (product-to-exponential steps).
    """
    half = 1 << (d - 1)
    if not 0 < t < half:
        return "t outside (0, 2^(d-1))"
    if 4 * t > 3 * half:
        return "t above (3/4) 2^(d-1); trivial bound regime"
    f = f_cut(d, t)
    if 2 * f >= t:
        return f"f = {f} not below t/2"
    if 2 * d * f > half - t:
        return f"f = {f} above (2^(d-1) - t)/(2d)"
    return None


def e1_factor(d: int, t: int) -> mp.mpf:
    """Lower-bound factor E1 = exp(-3 f**2 / t) * E0 with
    E0 = 1 - 2 (e w / f)**f exp(-w), w the density weight.

    i_t(Q_d) >= central * E1 wherever the validity conditions hold; raises
    NotApplicableError otherwise.
    """
    reason = e1_applicability(d, t)
    if reason is not None:
        raise NotApplicableError(f"lower-bound factor not applicable: {reason}")
    f = f_cut(d, t)
    w = mpf_from(density_weight(d, t))
    e0 = 1 - 2 * (mp.e * w / f) ** f * mp.exp(-w)
    return mp.exp(mp.mpf(-3) * f * f / t) * e0


def e2_applicability(d: int, t: int) -> Optional[str]:
    """Validity conditions of the upper-bound factor; None when applicable.

    Needs t strictly inside (0, 2**(d-1)) for the activity, and
    d f <= 2**(d-2) so the correction-factor estimate for sets of size up
    to f stays valid.
    """
    half = 1 << (d - 1)
    if not 0 < t < half:
        return "t outside (0, 2^(d-1))"
    f = f_cut(d, t)
    if d * f > half // 2:
        return f"d f = {d * f} above 2^(d-2)"
    return None


def e2_parts(d: int, t: int) -> dict[str, mp.mpf]:
    """The three summands of the upper-bound factor E2, exposed separately:

    type-I:   exp(d^2 t^2 2^d / (2^(d-1)-t)^2 * (1-t/2^(d-1))^(2d-2)
                  + d^2 f^2 / 2^(d-1))
    type-II:  3**(-f)
    type-III: 3 e^5 d^10 2^(3d/2) F_lam(6, 6d-60)
                  * exp(d^2 t^2 2^d / (2^(d-1)-t)^2 * (1-t/2^(d-1))^(2d-2))
    """
    reason = e2_applicability(d, t)
    if reason is not None:
        raise NotApplicableError(f"upper-bound factor not applicable: {reason}")
    half = 1 << (d - 1)
    f = f_cut(d, t)
    lam = lambda_of_t(d, t)
    x_exp = Fraction(d * d * t * t * 2 ** d, (half - t) ** 2) \
        * (1 - Fraction(t, half)) ** (2 * d - 2)
    y_exp = Fraction(d * d * f * f, half)
    x = mpf_from(x_exp)
    type1 = mp.exp(x + mpf_from(y_exp))
    type2 = mp.power(3, -mpf_from(f))
    type3 = 3 * mp.e ** 5 * mp.mpf(d) ** 10 * mp.power(2, mp.mpf(3 * d) / 2) \
        * mpf_from(big_f(lam, 6, 6 * d - 60)) * mp.exp(x)
    return {"type1": type1, "type2": type2, "type3": type3}


def e2_factor(d: int, t: int) -> mp.mpf:
    """Upper-bound factor E2: i_t(Q_d) <= central * E2 wherever the validity
    conditions hold."""
    parts = e2_parts(d, t)
    return parts["type1"] + parts["type2"] + parts["type3"]


# ---------------------------------------------------------------------------
# Density-window classification and the estimate window
# ---------------------------------------------------------------------------

def range_tag(d: int, t: int, c=Fraction(1)) -> str:
    """Classify t against the two density windows.

    Upper window: 2**(d-1)(1 - 1/sqrt(2) + 2 log2(d)/d) <= t <= 2**(d-1).
    Lower window: 2**(d-1) c log2(d)/d**(1/3) <= t < the upper threshold.
    The constant c is a configuration parameter, not a derived quantity.
    """
    c = Fraction(c)
    half = mp.mpf(2) ** (d - 1)
    if t < 0 or t > (1 << (d - 1)):
        return RANGE_DEGENERATE
    tf = mpf_from(t)
    upper_threshold = half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)
    lower_threshold = half * (mpf_from(c) * mp.log(d, 2) / mp.cbrt(d))
    if tf >= upper_threshold:
        return RANGE_DENSE
    if tf >= lower_threshold:
        return RANGE_SPARSE
    return RANGE_BELOW


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

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "t": self.t,
            "lambda": (f"{self.lam.numerator}/{self.lam.denominator}"
                       if self.lam is not None else None),
            "central_log2": mp.nstr(self.central_log2, 18),
            "f_cut": self.f_cut,
            "e1": mp.nstr(self.e1, 18) if self.e1 is not None else None,
            "e1_reason": self.e1_reason,
            "e2": mp.nstr(self.e2, 18) if self.e2 is not None else None,
            "e2_reason": self.e2_reason,
            "range": self.tag,
        }


def estimate_window(d: int, t: int, c=Fraction(1)) -> CubeEstimate:
    """Central value with the multiplicative window [E1, E2] where the
    factors apply, plus the density-window tag.  Inapplicable factors are
    reported with their reasons instead of numbers."""
    tag = range_tag(d, t, c)
    lam = None
    fc = None
    if 0 < t < (1 << (d - 1)):
        lam = lambda_of_t(d, t)
        fc = f_cut(d, t)
    e1 = e2 = None
    reason1 = e1_applicability(d, t) if 0 < t <= (1 << (d - 1)) else "degenerate t"
    reason2 = e2_applicability(d, t) if 0 < t <= (1 << (d - 1)) else "degenerate t"
    if reason1 is None:
        e1 = e1_factor(d, t)
    if reason2 is None:
        e2 = e2_factor(d, t)
    return CubeEstimate(d=d, t=t, lam=lam, central_log2=central_log2(d, t),
                        f_cut=fc, e1=e1, e1_reason=reason1, e2=e2,
                        e2_reason=reason2, tag=tag)


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

    return {
        "case2": {"holds": lhs2 > rhs2, "margin": lhs2 - rhs2},
        "case3": {"holds": lhs3 < rhs3, "margin": rhs3 - lhs3},
        "case4": {"holds": lhs4 < rhs4, "margin": rhs4 - lhs4},
    }


def case_scan(d_max: int = SCAN_LIMIT_DEFAULT, d_min: int = 2) -> dict[str, dict]:
    """Scan the closing inequalities over [d_min, d_max].

    Per case: the least d0 such that the inequality holds for every d in
    [d0, d_max] (None when no such d0 exists), the list of failing d, and a
    scanned monotonicity certificate: the least dimension from which the
    margin is positive and nondecreasing through d_max (None when never).
    Scanned facts, not proofs.
    """
    names = ("case2", "case3", "case4")
    margins = {name: [] for name in names}
    for d in range(d_min, d_max + 1):
        verdicts = case_inequalities(d)
        for name in names:
            margins[name].append(verdicts[name]["margin"])
    out = {}
    for name in names:
        ms = margins[name]
        holds = [m > 0 for m in ms]
        fails = [d_min + i for i, h in enumerate(holds) if not h]
        d0 = None
        for i in range(len(holds)):
            if all(holds[i:]):
                d0 = d_min + i
                break
        mono_from = None
        for i in range(len(ms)):
            tail = ms[i:]
            if all(m > 0 for m in tail) and \
                    all(tail[j] <= tail[j + 1] for j in range(len(tail) - 1)):
                mono_from = d_min + i
                break
        out[name] = {"d0": d0, "fails": fails, "monotone_from": mono_from}
    return out


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
    return not leq_exp_of(1 + tol, drop, max_prec=16384)
