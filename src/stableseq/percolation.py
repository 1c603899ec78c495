"""Random subgraphs by independent edge deletion, and the experiment harness
that estimates how often percolated regular bipartite graphs satisfy the
two-sided interval property.

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
from .numerics import mpf_from
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
    ones holds 1 in each lane.  See percolate for why no lane spills."""
    masks = _MASK64 * ones
    x = (states + 0x9E3779B97F4A7C15 * ones) & masks
    x = ((x ^ (x >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
    x = ((x ^ (x >> 27)) & masks) * 0x94D049BB133111EB & masks
    x = (x ^ (x >> 31)) & masks
    return ((_MASK64 + threshold) * ones - x).to_bytes(16 * k, "little")[8::16]


def percolate(g: Graph, p, seed: int, trial: int = 0) -> Graph:
    """Keep each edge of g independently with probability p, using the
    deterministic stream keyed by (seed, trial, edge index).  Edge indices
    follow the canonical ascending edge order of g.

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
    return _sampler(g, p)(seed, trial)


def _sampler(g: Graph, p):
    """percolate(g, p, seed, trial) as a function of (seed, trial), with
    what does not depend on them made once: the threshold, g's canonical
    edges in chunks of _LANES and each chunk's lane constants."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
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


@dataclass(frozen=True)
class PercolationConfig:
    base: str                      # graph spec of a regular bipartite base
    p: Fraction
    seed: int
    trials: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError("p outside [0, 1]")
        if self.trials < 1:
            raise ValueError("trials >= 1 required")


def default_step_rule(n: int, h: Fraction, epsilon: Fraction) -> int:
    """Step size ceil(C(eps) * max(log2 n, n h)) with
    C(eps) = 1/H'((1-eps)/2), floored at 1."""
    return _step_rule(n, epsilon)(h)


def _step_rule(n: int, epsilon: Fraction):
    """default_step_rule(n, h, epsilon) as a function of h, with C(eps) and
    log2 n evaluated once."""
    c_eps = 1 / entropy_derivative((1 - epsilon) / 2)
    log2_n = mp.log(n, 2)

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

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "stream_id": self.stream_id,
            "h_value": f"{self.h_value.numerator}/{self.h_value.denominator}",
            "s_used": self.s_used,
            "alpha": self.alpha,
            "holds": self.holds,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class ExperimentSummary:
    config: PercolationConfig
    epsilon: Fraction
    d_prime: Fraction
    records: tuple[TrialRecord, ...]
    success_rate: Fraction

    def to_json_dict(self) -> dict:
        _, sep, arg = self.config.base.partition(":")
        return {
            "base": spec_family(self.config.base) + sep + arg,
            "p": f"{self.config.p.numerator}/{self.config.p.denominator}",
            "seed": self.config.seed,
            "trials": self.config.trials,
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "d_prime": f"{self.d_prime.numerator}/{self.d_prime.denominator}",
            "success_rate": f"{self.success_rate.numerator}/"
                            f"{self.success_rate.denominator}",
            "per_trial": [r.to_json_dict() for r in self.records],
        }


def run_experiment(cfg: PercolationConfig,
                   epsilon=Fraction(1, 10)) -> ExperimentSummary:
    """Sample cfg.trials graphs by percolating the base graph cfg.base,
    compute each exact count sequence, and check the two-sided interval
    property (epsilon, epsilon, s) with s chosen per trial by
    default_step_rule from the sampled graph's regularity defect at the
    reference degree d' = d p, where d is the base's degree.  Every sample
    is measured against the base's bipartition, even when it is
    disconnected, and n = |V|/2.

    d' = d p is a recorded experimental choice; it is surfaced in the
    summary next to every verdict.
    """
    base = parse_graph_spec(cfg.base)
    degrees = set(base.degrees())
    if len(degrees) != 1 or 0 in degrees:
        raise ValueError("experiment base must be regular of degree >= 1")
    frame = bipartition(base)
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    # a regular bipartite graph of degree >= 1 has equal classes
    n = base.n // 2
    d_prime = degrees.pop() * cfg.p
    sampler = _sampler(base, cfg.p)
    step_rule = _step_rule(n, epsilon)
    records = []
    successes = 0
    for trial in range(cfg.trials):
        sample = sampler(cfg.seed, trial)
        if d_prime > 0:
            prof = regularity_profile(sample, frame, d_prime)
            h = prof.h_value
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
            stream_id=_stream64(cfg.seed, trial, 0),
            h_value=h,
            s_used=s_used,
            alpha=seq.alpha,
            holds=holds,
            flagged=flagged,
        ))
    return ExperimentSummary(
        config=cfg,
        epsilon=epsilon,
        d_prime=d_prime,
        records=tuple(records),
        success_rate=Fraction(successes, cfg.trials),
    )
