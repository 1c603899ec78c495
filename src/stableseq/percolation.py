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

import mpmath as mp

from .bounds import entropy_derivative
from .exact import count_by_size
from .graphs import (Graph, bipartition, parse_graph_spec, regularity_profile,
                     spec_family)
from .numerics import mpf_from
from .seqshape import check_property_bgs

_MASK64 = (1 << 64) - 1


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


def percolate(g: Graph, p, seed: int, trial: int = 0) -> Graph:
    """Keep each edge of g independently with probability p, using the
    deterministic stream keyed by (seed, trial, edge index).  Edge indices
    follow the canonical ascending edge order of g."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
    # Threshold floor(p * 2^64) makes the keep probability exact for dyadic
    # p and within 2^-64 otherwise.
    threshold = (p.numerator << 64) // p.denominator
    key = _trial_key(seed, trial)
    adj = [0] * g.n
    for i, (u, v) in enumerate(g.edges()):
        if _splitmix64(key ^ i) < threshold:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


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
    c_eps = 1 / entropy_derivative((1 - epsilon) / 2)
    value = c_eps * max(mp.log(n, 2), mpf_from(h) * n)
    return max(1, int(mp.ceil(value)))


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
    records = []
    successes = 0
    for trial in range(cfg.trials):
        sample = percolate(base, cfg.p, cfg.seed, trial)
        if d_prime > 0:
            prof = regularity_profile(sample, frame, d_prime)
            h = prof.h_value
        else:
            h = Fraction(0)
        s_used = default_step_rule(n, h, epsilon)
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
