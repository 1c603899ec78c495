"""Random subgraphs by independent edge deletion, and the experiment harness
that estimates how often percolated regular bipartite graphs satisfy the
two-sided interval property.  run_experiment takes the base's graph spec
and plain numbers and returns plain data: a frozen ExperimentSummary of
Fractions, ints and per-trial records, which the command line writes out.

Randomness is a counter-based stream keyed by (seed, trial, edge index):
no generator state is carried between draws, so runs are reproducible and
trials can be evaluated in any order or in parallel without changing the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice

from .exact import count_by_size
from .graphs import (Graph, bipartition, parse_graph_spec, regularity_profile,
                     spec_family)
from .seqshape import check_property_bgs

_MASK64 = (1 << 64) - 1
# Most edges drawn in one pass of _kept: 16 kB per lane integer.
_LANES = 1 << 10


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_key(seed: int, trial: int) -> int:
    """Prefix of the counter-based stream shared by every counter of one
    (seed, trial)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ (trial & _MASK64))


def _stream64(seed: int, trial: int, counter: int) -> int:
    """64-bit word of the counter-based stream at (seed, trial, counter)."""
    return _splitmix64(_trial_key(seed, trial) ^ (counter & _MASK64))


def _lanes(k: int) -> tuple[int, int]:
    """sum of 1 << 128 i and sum of i << 128 i over i < k: a 1 and its own
    index in each of k 128-bit lanes, by doubling the lane count."""
    ones, indices, width = 1, 0, 1
    while width < k:
        shift = 128 * width
        indices |= (indices + width * ones) << shift
        ones |= ones << shift
        width *= 2
    low = (1 << 128 * k) - 1
    return ones & low, indices & low


def _kept(states: int, ones: int, k: int, threshold: int) -> bytes:
    """One byte per lane of states, k 128-bit lanes each holding a 64-bit
    SplitMix64 state: 1 where the lane's word is below threshold, else 0.
    ones holds 1 in each lane.  See _sampler for why no lane spills."""
    masks = _MASK64 * ones
    x = (states + 0x9E3779B97F4A7C15 * ones) & masks
    x = ((x ^ (x >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
    x = ((x ^ (x >> 27)) & masks) * 0x94D049BB133111EB & masks
    x = (x ^ (x >> 31)) & masks
    return ((_MASK64 + threshold) * ones - x).to_bytes(16 * k, "little")[8::16]


def _probability(p) -> Fraction:
    """p as a Fraction, refused outside [0, 1]."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
    return p


def _sampler(g: Graph, p):
    """The sampler of g at p: a function of (seed, trial) that keeps each
    edge of g independently with probability p, using the deterministic
    stream keyed by (seed, trial, edge index).  Edge indices follow the
    canonical ascending edge order of g.  What does not depend on (seed,
    trial) is made once: the threshold, g's canonical edges in chunks of
    _LANES and each chunk's lane constants.

    The words of up to _LANES edges are drawn at once: edge i's SplitMix64
    state sits in bits 128i .. 128i + 63 of one integer, its lane, and each
    step of the mix is one integer operation over all lanes (_kept).  A
    shift by at most 31 moves the low bits of lane i + 1, which starts at
    bit 128 (i + 1), into bits 97 and up of lane i, which the next mask
    clears.  A masked lane is below 2**64, so its product with a 64-bit
    constant is below 2**128 and no lane carries into the next.  A word is
    below the threshold exactly when bit 64 of 2**64 + threshold - 1 - word
    is set; that difference lies in [0, 2**65), so no lane borrows either,
    and byte 8 of each lane is the edge's keep flag."""
    p = _probability(p)
    # Threshold floor(p * 2^64) makes the keep probability exact for dyadic
    # p and within 2^-64 otherwise.
    threshold = (p.numerator << 64) // p.denominator
    edges = g.edges()
    chunks, start = [], 0
    while chunk := list(islice(edges, _LANES)):
        chunks.append((start, chunk, *_lanes(len(chunk))))
        start += _LANES

    def sample(seed: int, trial: int) -> Graph:
        key = _trial_key(seed, trial)
        adj = [0] * g.n
        for start, chunk, ones, indices in chunks:
            # start is a multiple of _LANES and each lane index i is below
            # _LANES, so key ^ (start + i) = (key ^ start) ^ i
            kept = _kept((key ^ start) * ones ^ indices, ones, len(chunk),
                         threshold)
            for u, v in compress(chunk, kept):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return Graph(g.n, tuple(adj))
    return sample


# Most bits of log2 r the exact step rule computes before it refuses an
# epsilon: enough for an epsilon down to about 10**-4900.
_STEP_BITS = 1 << 15
# Relative half-width of the band around a float quotient inside which the
# step rule decides in integers (see _step_rule).
_BAND = 2.0 ** -36
# 2 / ln 2, correctly rounded: log2 r = 2 atanh(epsilon) / ln 2.
_TWO_OVER_LN2 = 2.8853900817779268


def _atanh_bracket(u: int, v: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits atanh(u/v) <= hi, for 0 <= u/v <= 1/3.

    lo sums the series of z**(2j+1)/(2j+1), z = u/v, in units of 2**-bits,
    each power taken from the one before and floored, and each term
    floored.  A power then errs by under 1/(1 - z**2) <= 9/8 of a unit, so
    a term by under 11/8, and the terms from the first power that floors
    to 0 onwards sum below 1/2: over J powers, the true value lies below
    lo + 2 J + 2.  A z whose denominator is longer than bits is first
    floored to bits binary places, which lowers atanh z by under 9/8 of a
    unit, so hi then gains 2 more."""
    slack = 2
    if v.bit_length() > bits:
        u, v, slack = (u << bits) // v, 1 << bits, 4
    power = total = (u << bits) // v
    u2, v2 = u * u, v * v
    j = 0
    while power:
        j += 1
        power = power * u2 // v2
        total += power // (2 * j + 1)
    return total, total + 2 * j + slack


def _log2_bracket(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits log2(num/den) <= hi, for num >= den >= 1.
    With 2**e <= num/den = 2**e f < 2**(e + 1), log2(num/den) is
    e + atanh(z)/atanh(1/3) for z = (f - 1)/(f + 1) < 1/3, since
    ln f = 2 atanh(z) and ln 2 = 2 atanh(1/3); exact at a power of two."""
    e = num.bit_length() - den.bit_length()
    if den << e > num:
        e -= 1
    base = den << e
    if num == base:
        return e << bits, e << bits
    a_lo, a_hi = _atanh_bracket(num - base, num + base, bits)
    c_lo, c_hi = _atanh_bracket(1, 3, bits)
    return ((e << bits) + (a_lo << bits) // c_hi,
            (e << bits) - (-(a_hi << bits) // c_lo))


def _ceil_over_log2(x_bracket, x_bits: int, num: int, den: int) -> int:
    """ceil(x / log2 r) for r = num/den > 1 and x >= 0, where x_bracket(b)
    gives integers lo <= 2**b x <= hi and x < 2**x_bits; x / log2 r must
    not be a positive integer, which no bracket could settle.  The
    quotient lies between the quotients of the two brackets' ends, and the
    precision doubles until their ceilings agree.  It starts at the bits
    that x / log2 r needs with log2 r >= (r - 1)/r >= 2**-g: 2 g + x_bits
    and a margin of 64.  Refuses (ValueError) past _STEP_BITS."""
    g = max(0, den.bit_length() - (num - den).bit_length() + 2)
    bits = 2 * g + x_bits + 64
    while bits <= _STEP_BITS:
        l_lo, l_hi = _log2_bracket(num, den, bits)
        x_lo, x_hi = x_bracket(bits)
        if l_lo > 0:
            s = -(-x_lo // l_hi)
            if s == -(-x_hi // l_lo):
                return s
        bits *= 2
    raise ValueError(f"the step rule at this epsilon needs "
                     f"log2((1 + epsilon)/(1 - epsilon)) to more than "
                     f"{_STEP_BITS} bits")


def _float_ceil(q: float):
    """ceil of the value that the float q >= 0 approximates within 2**-42,
    relative (so a q of 0 is exact), or None where that is not certain:
    where the band of relative half-width _BAND around q holds an
    integer."""
    s = math.ceil(q * (1 - _BAND))
    return s if s == math.ceil(q * (1 + _BAND)) else None


def _step_rule(n: int, epsilon: Fraction):
    """The step rule for n and epsilon: a function of the defect h giving
    s = ceil(C(eps) max(log2 n, n h)), floored at 1, with C(eps) =
    1/H'((1 - eps)/2) = 1/log2 r for r = (1 + eps)/(1 - eps).  That is
    max(1, ceil(log2 n / log2 r), ceil(n h / log2 r)), each ceiling exact.

    For r >= 2 the first ceiling is the least s with r**s >= n, at most
    log2 n + 1 integer powers.  Every other ceiling is first taken from a
    float quotient: the int true divisions are correctly rounded, and
    math.atanh and math.log2 are taken to be within 2**-44 of their values,
    relative (the tests check them against mpmath), so the quotient is
    within 2**-42 of its value.  Where the band of _float_ceil holds an
    integer, as it always does once s passes about 2**35, or where epsilon
    is outside float range, _ceil_over_log2 decides in integers.  The
    quotient it takes is never a positive integer: n h / log2 r = s needs
    r**s = 2**(n h), so r a power of two, whose bracket is exact, and for
    r < 2 no r**s is an integer n.  The first ceiling is found once."""
    a, b = epsilon.numerator, epsilon.denominator
    num, den = b + a, b - a
    if num >= 2 * den:
        inverse = (1 / math.log2(num / den)
                   if num.bit_length() - den.bit_length() < 1000 else None)
        log_term, top, bottom = 0, 1, 1
        while top < n * bottom:
            top, bottom, log_term = top * num, bottom * den, log_term + 1
    else:
        inverse = (1 / (math.atanh(a / b) * _TWO_OVER_LN2)
                   if a << 1000 > b else None)
        log_term = None if inverse is None else _float_ceil(
            math.log2(n) * inverse)
        if log_term is None:
            log_term = _ceil_over_log2(lambda bits: _log2_bracket(n, 1, bits),
                                       n.bit_length().bit_length(), num, den)
    log_term = max(1, log_term)

    def rule(h: Fraction) -> int:
        u, v = n * h.numerator, h.denominator
        s = None if inverse is None else _float_ceil(u / v * inverse)
        if s is None:
            s = _ceil_over_log2(
                lambda bits: ((u << bits) // v, -(-(u << bits) // v)),
                (u // v).bit_length() + 1, num, den)
        return max(log_term, s)
    return rule


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    stream_id: int
    h_value: Fraction
    s_used: int
    alpha: int
    holds: bool
    flagged: bool          # alpha differed from n; counted as a failure


@dataclass(frozen=True)
class ExperimentSummary:
    base: str              # the base's spec, family name lower-cased
    p: Fraction
    seed: int
    trials: int
    epsilon: Fraction
    d_prime: Fraction
    records: tuple[TrialRecord, ...]
    success_rate: Fraction


def run_experiment(base: str, p, seed: int, trials: int,
                   epsilon=Fraction(1, 10)) -> ExperimentSummary:
    """Sample trials graphs by percolating the graph of spec base at p,
    compute each exact count sequence, and check the two-sided interval
    property (epsilon, epsilon, s) with s chosen per trial by the step rule
    (_step_rule) from the sampled graph's regularity defect at the
    reference degree d' = d p, where d is the base's degree.  Every sample
    is measured against the base's bipartition, even when it is
    disconnected, and n = |V|/2.

    d' = d p is a recorded experimental choice; it is surfaced in the
    summary next to every verdict.  The step rule is exact, in floats where
    their error bound decides it and in integers elsewhere, so no mpmath
    precision enters the summary.
    """
    p = _probability(p)
    if trials < 1:
        raise ValueError("trials >= 1 required")
    g = parse_graph_spec(base)
    degrees = set(g.degrees())
    if len(degrees) != 1 or 0 in degrees:
        raise ValueError("experiment base must be regular of degree >= 1")
    frame = bipartition(g)
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    # a regular bipartite graph of degree >= 1 has equal classes
    n = g.n // 2
    d_prime = degrees.pop() * p
    sampler = _sampler(g, p)
    step_rule = _step_rule(n, epsilon)
    records = []
    successes = 0
    for trial in range(trials):
        sample = sampler(seed, trial)
        if d_prime > 0:
            h = regularity_profile(sample, frame, d_prime)
        else:
            h = Fraction(0)
        s_used = step_rule(h)
        seq = count_by_size(sample)
        flagged = seq.alpha != n
        holds = False
        if not flagged:
            verdict = check_property_bgs(seq, n, epsilon, epsilon, s_used)
            holds = verdict.holds
        if holds:
            successes += 1
        records.append(TrialRecord(
            trial=trial,
            stream_id=_stream64(seed, trial, 0),
            h_value=h,
            s_used=s_used,
            alpha=seq.alpha,
            holds=holds,
            flagged=flagged,
        ))
    _, sep, arg = base.partition(":")
    return ExperimentSummary(
        base=spec_family(base) + sep + arg,
        p=p,
        seed=seed,
        trials=trials,
        epsilon=epsilon,
        d_prime=d_prime,
        records=tuple(records),
        success_rate=Fraction(successes, trials),
    )
