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

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice

import mpmath as mp

from .bounds import entropy_derivative
from .exact import count_by_size
from .graphs import (Graph, bipartition, parse_graph_spec, regularity_profile,
                     spec_family)
from .numerics import log2, mpf_from, working_precision
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


def _step_rule(n: int, epsilon: Fraction):
    """The step rule for n and epsilon: a function of the defect h giving
    ceil(C(eps) * max(log2 n, n h)) with C(eps) = 1/H'((1-eps)/2), floored
    at 1; C(eps) and log2 n are evaluated once."""
    c_eps = 1 / entropy_derivative((1 - epsilon) / 2)
    log2_n = log2(mpf_from(n))

    def rule(h: Fraction) -> int:
        return max(1, int(mp.ceil(c_eps * max(log2_n, mpf_from(h) * n))))
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


@working_precision()
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
    summary next to every verdict.  The step rule is evaluated at
    numerics.WORKING_BITS whatever the caller's mpmath precision.
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
