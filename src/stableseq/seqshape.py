"""Shape checkers for count sequences: relaxed step monotonicity, the
two-sided interval property for balanced bipartite graphs, and the
decreasing final third.

All verdicts use exact integer comparisons; ties satisfy the non-strict
definitions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import IndSetSequence

INCREASING = "increasing"
DECREASING = "decreasing"


@dataclass(frozen=True)
class MonotonicityReport:
    kind: str
    lo: int
    hi: int
    s: int
    holds: bool
    witness: Optional[tuple[int, int]]  # lexicographically first violation


def check_sstep(seq, kind: str, lo: int, hi: int,
                s: int) -> MonotonicityReport:
    """Check s-step monotonicity of seq on [lo, hi]: for every pair
    lo <= i <= j <= hi with j - i >= s the counts must satisfy
    a_i <= a_j (increasing kind) or a_i >= a_j (decreasing kind).

    Runs in O(hi - lo) using suffix extrema rather than all pairs; the
    witness returned is the lexicographically first violating pair.
    """
    counts = seq.counts if isinstance(seq, IndSetSequence) else tuple(seq)
    if kind not in (INCREASING, DECREASING):
        raise ValueError(f"unknown kind {kind!r}")
    if s < 1:
        raise ValueError("step s must be >= 1")
    if not (0 <= lo <= hi <= len(counts) - 1):
        raise ValueError(f"malformed interval [{lo}, {hi}] for length "
                         f"{len(counts)}")
    window = counts[lo:hi + 1]
    m = len(window)
    if m <= s:
        return MonotonicityReport(kind, lo, hi, s, True, None)

    # suffix extremum of the comparison target: for increasing kind a
    # violation at i needs some later a_j strictly below a_i, so track
    # suffix minima; symmetric for decreasing.
    extremum, bad = ((min, operator.gt) if kind == INCREASING
                     else (max, operator.lt))
    suffix = list(window)
    for i in range(m - 2, -1, -1):
        suffix[i] = extremum(window[i], suffix[i + 1])

    for i in range(0, m - s):
        if bad(window[i], suffix[i + s]):
            for j in range(i + s, m):
                if bad(window[i], window[j]):
                    return MonotonicityReport(kind, lo, hi, s, False,
                                              (lo + i, lo + j))
    return MonotonicityReport(kind, lo, hi, s, True, None)


@dataclass(frozen=True)
class PropertyBGS:
    holds: bool
    increasing: MonotonicityReport
    decreasing: MonotonicityReport


def check_property_bgs(seq, n: int, beta, gamma, s: int) -> PropertyBGS:
    """Two-sided interval property for a 2n-vertex balanced bipartite graph:
    s-step increasing on [beta*n, (1-gamma)*n/2] and s-step decreasing on
    [(1+gamma)*n/2, (1-beta)*n].

    Interval endpoints are rounded inward (ceil left, floor right), which
    can only weaken the asserted property: the ends are ceil(beta n),
    floor((1 - gamma) n/2), ceil((1 + gamma) n/2) and floor((1 - beta) n),
    each taken by integer floor division on the numerators and
    denominators of beta and gamma.  The sequence must run up to
    alpha = n; anything else is rejected.
    """
    counts = seq.counts if isinstance(seq, IndSetSequence) else tuple(seq)
    alpha = len(counts) - 1
    if alpha != n:
        raise ValueError(f"sequence alpha = {alpha} differs from n = {n}; "
                         "the property is defined for balanced bipartite "
                         "graphs with full-range sequences")
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    # beta = bp/bq and gamma = gp/gq in lowest terms, bq and gq positive
    bp, bq = beta.numerator, beta.denominator
    gp, gq = gamma.numerator, gamma.denominator
    if not (0 <= bp < bq and 0 <= gp < gq):
        raise ValueError("beta, gamma must lie in [0, 1)")
    # checked here too, since an empty interval never reaches check_sstep
    if s < 1:
        raise ValueError("step s must be >= 1")
    # each end is one floor division; ceil(x/y) = -(-x // y) for y > 0
    lo1 = -(-bp * n // bq)
    hi1 = (gq - gp) * n // (2 * gq)
    lo2 = -(-(gq + gp) * n // (2 * gq))
    hi2 = (bq - bp) * n // bq
    inc = check_sstep(counts, INCREASING, lo1, hi1, s) if hi1 >= lo1 \
        else MonotonicityReport(INCREASING, lo1, lo1, s, True, None)
    dec = check_sstep(counts, DECREASING, lo2, hi2, s) if hi2 >= lo2 \
        else MonotonicityReport(DECREASING, hi2, hi2, s, True, None)
    return PropertyBGS(holds=inc.holds and dec.holds, increasing=inc,
                       decreasing=dec)


def is_unimodal(seq) -> tuple[bool, Optional[tuple[int, int]]]:
    """Plain unimodality: nondecreasing up to a mode, nonincreasing after.

    Equivalent formulation used here: 1-step increasing up to the first
    global maximum and 1-step decreasing after it.  The witness on failure
    is the lexicographically first violating pair.
    """
    counts = seq.counts if isinstance(seq, IndSetSequence) else tuple(seq)
    k = counts.index(max(counts))
    inc = check_sstep(counts, INCREASING, 0, k, 1)
    dec = check_sstep(counts, DECREASING, k, len(counts) - 1, 1)
    if inc.holds and dec.holds:
        return True, None
    return False, inc.witness if inc.witness is not None else dec.witness


def check_final_third(seq) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decreasing run over the final third: counts must be nonincreasing
    from index ceil((2*alpha - 1)/3) through alpha."""
    counts = seq.counts if isinstance(seq, IndSetSequence) else tuple(seq)
    alpha = len(counts) - 1
    if alpha <= 0:
        return True, None
    start = -((-(2 * alpha - 1)) // 3)  # ceil((2 alpha - 1)/3)
    start = max(0, start)
    rep = check_sstep(counts, DECREASING, start, alpha, 1)
    return rep.holds, rep.witness

