"""The three workloads: seeded inputs, the fixed call list of one pass, and
the output check of every call.

``count`` runs the ``count`` verb over a corpus that drives both exact
backends.  ``percolate`` runs many small ``percolate`` experiments, where
sampling, the regularity defect and the step rule sit beside counting.
``certify`` is where counting is a small share: bounds, shape checks and
hypercube estimates, so it is the bypass workload for changes to ``exact``.

A call is either one in-process ``stableseq.cli.main(argv)`` whose stdout is
parsed as JSON, or, where no verb exposes the function, one public library
call.  Every check compares against ``oracles``, never against the program's
own counter.  Builders write generated graphs as ``file:`` specs relative to
the working directory, so outputs do not depend on where a run happens.
Why each workload exists is recorded beside its name in BENCHMARK.json.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp

import oracles as orc

WORKLOADS = ("count", "percolate", "certify")

Check = Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Call:
    """One closed-loop step.  ``argv`` makes it a CLI call; otherwise ``fn``
    is a library call taking the pass context.  ``check`` returns an error
    text or None."""

    label: str
    check: Check
    argv: Optional[tuple[str, ...]] = None
    fn: Optional[Callable[["PassContext"], object]] = None


class PassContext:
    """State one pass shares between its library calls: the stableseq
    package, a fresh directory for the cube cache, and earlier results."""

    def __init__(self, lib, scratch: str):
        self.lib = lib
        self.scratch = scratch
        self.results: dict = {}


def build(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The call list of one pass.  Writes graph files into the current
    directory.  ``tiny`` shrinks every input for the benchmark's own tests."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    builder = {"count": _build_count, "percolate": _build_percolate,
               "certify": _build_certify}[workload]
    return builder(rng, tiny)


# ---------------------------------------------------------------------------
# Input generation helpers
# ---------------------------------------------------------------------------

def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k values, one drawn from each of k consecutive slices of [lo, hi], so
    every seed covers the whole range (slices repeat when k exceeds it)."""
    span = hi - lo + 1
    out = []
    for i in range(k):
        a = lo + i * span // k
        out.append(rng.randint(a, max(a, lo + (i + 1) * span // k - 1)))
    return out


def _spread(lo: int, hi: int, k: int) -> list[int]:
    """k values evenly spaced over [lo, hi]: sizes that are the same for
    every seed, so the calls near call_p50_ms cost the same on each."""
    return [lo + i * (hi - lo) // max(1, k - 1) for i in range(k)]


def _write_graph(name: str, n: int, edges) -> str:
    with open(name, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    return "file:" + name


def _random_bipartite(rng: random.Random, side: int, p: Fraction):
    return [(u, side + v) for u in range(side) for v in range(side)
            if rng.random() < p]


def _random_gnp(rng: random.Random, n: int, p: Fraction):
    """G(n, p) redrawn until it has a triangle, so it is not bipartite."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        if orc.count_triangles(n, edges):
            return edges


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_sequence(payload, expected=None, low=None, total=None,
                   at_least=()) -> Optional[str]:
    counts = [int(c) for c in payload["counts"]]
    if int(payload["total"]) != sum(counts) or \
            payload["alpha"] != len(counts) - 1:
        return "total or alpha disagrees with counts"
    if expected is not None and tuple(counts) != tuple(expected):
        return f"counts {counts} != expected {list(expected)}"
    if low is not None:
        got = tuple(counts[t] if t < len(counts) else 0 for t in range(4))
        if got != tuple(low):
            return f"i_0..i_3 = {got} != {tuple(low)}"
    if total is not None and sum(counts) != total:
        return f"total {sum(counts)} != {total}"
    for t, floor in at_least:
        if t >= len(counts) or counts[t] < floor:
            return f"i_{t} below {floor}"
    return None


def check_percolation(payload, n: int, p: Fraction, seed: int,
                      trials: int) -> Optional[str]:
    head = (payload["base"], payload["p"], payload["seed"], payload["trials"],
            Fraction(payload["d_prime"]))
    if head != (f"knn:{n},{n}", _frac(p), seed, trials, n * p):
        return f"experiment header {head} disagrees with the request"
    records = payload["per_trial"]
    if len(records) != trials:
        return f"{len(records)} trial records for {trials} trials"
    holds = 0
    for i, rec in enumerate(records):
        if rec["trial"] != i or rec["stream_id"] != orc.stream_id(seed, i):
            return f"trial {i}: index or stream id wrong"
        if rec["alpha"] < n or rec["flagged"] != (rec["alpha"] != n):
            return f"trial {i}: alpha {rec['alpha']} vs flagged {rec['flagged']}"
        if rec["s_used"] < 1 or (rec["holds"] and rec["flagged"]):
            return f"trial {i}: step or verdict inconsistent"
        holds += rec["holds"]
    if Fraction(payload["success_rate"]) != Fraction(holds, trials):
        return f"success rate {payload['success_rate']} != {holds}/{trials}"
    return None


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_bounds(payload, nverts: int, d: int, seq) -> Optional[str]:
    n = nverts // 2
    if payload["violations"]:
        return f"violations {payload['violations']}"
    if (payload["n"], payload["d"], len(payload["rows"])) != (n, d, n + 1):
        return "table shape disagrees with the graph"
    for row in payload["rows"]:
        t = row["t"]
        lower, upper = float(row["lower_log2"]), float(row["upper_log2"])
        exact = math.log2(seq[t])
        if not _close(float(row["exact_log2"]), exact) or \
                not lower - 1e-9 <= exact <= upper + 1e-9:
            return f"row t={t} not a sandwich around log2 i_t = {exact}"
    for entry in payload["partition_bounds"]:
        lam = Fraction(entry["lambda"])
        value = orc.polynomial_value(seq, lam)
        if Fraction(entry["exact_value"]) != value:
            return f"P(G, {lam}) = {entry['exact_value']} != {value}"
        if float(entry["regular_log2"]) < math.log2(value) - 1e-9:
            return f"regular bound below P(G, {lam})"
    return None


def check_shape(payload, prop: str, seq, n=None, beta=None, gamma=None,
                step=None) -> Optional[str]:
    if prop == "bgs":
        holds, inc, dec = orc.bgs_verdict(seq, n, beta, gamma, step)
        got = (payload["holds"], payload["increasing"]["witness"],
               payload["decreasing"]["witness"])
        want = (holds, inc, dec)
    else:
        wit = (orc.unimodal_witness(seq) if prop == "unimodal"
               else orc.final_third_witness(seq))
        got, want = (payload["holds"], payload["witness"]), (wit is None, wit)
    return None if got == want else f"{prop}: got {got}, expected {want}"


def check_transition(payload, d: int) -> Optional[str]:
    half = 1 << (d - 1)
    seq = orc.HYPERCUBE_SEQUENCES[d]
    rows = payload["rows"]
    if [r["t"] for r in rows] != list(range(half + 1)):
        return "transition rows do not cover t = 0..2^(d-1)"
    for r in rows:
        t = r["t"]
        g = d * (Fraction(t, half) - Fraction(1, 2))
        ratio = math.log2(seq[t]) - 1 - math.log2(math.comb(half, t))
        if Fraction(r["g"]) != g or \
                not _close(float(r["ratio_log2"]), ratio) or \
                not _close(float(r["predicted_limit"]),
                           math.exp(math.exp(-2 * g) / 2)):
            return f"transition row t={t} wrong"
    return None


def check_structure(payload, d: int, verts) -> Optional[str]:
    want = orc.cube_structure(d, verts)
    got = {k: payload[k] for k in want}
    if got != want:
        return f"structure {got} != {want}"
    comps = payload["components"]
    if comps is not None and (len(comps) != want["comps"] or
                              sorted(sum(comps, [])) != sorted(verts)):
        return "components do not partition the set"
    return None


def check_window(payload, d: int, ts) -> Optional[str]:
    half = 1 << (d - 1)
    rows = payload["rows"]
    if [(r["d"], r["t"]) for r in rows] != [(d, t) for t in ts]:
        return "window rows do not match the request"
    for r in rows:
        t = r["t"]
        if Fraction(r["lambda"]) != Fraction(t, half - t) or r["f_cut"] < d:
            return f"t={t}: lambda or f_cut wrong"
        with mp.workprec(256):
            binom_log2 = (mp.loggamma(half + 1) - mp.loggamma(t + 1)
                          - mp.loggamma(half - t + 1)) / mp.log(2)
            weight = t * (1 - mp.mpf(t) / half) ** (d - 1)
            central = 1 + binom_log2 + weight / mp.log(2)
            if abs(mp.mpf(r["central_log2"]) / central - 1) > 1e-12:
                return f"t={t}: central_log2 {r['central_log2']} != {central}"
            # E1 <= 1 < E2; at 18 printed digits both can read exactly 1
            if r["e1"] is not None and r["e2"] is not None and \
                    not mp.mpf(r["e1"]) <= 1 <= mp.mpf(r["e2"]):
                return f"t={t}: window [{r['e1']}, {r['e2']}] misses 1"
        if r["range"] not in ("range123", "range4", "below"):
            return f"t={t}: range tag {r['range']}"
    return None


def _bounded_by(exact: int, upper: bool) -> Check:
    def check(value):
        if value >= exact if upper else value <= exact:
            return None
        return f"{value} is not an {'upper' if upper else 'lower'} bound on {exact}"
    return check


def check_small_sets(table, d: int) -> Optional[str]:
    """The 2^(d-1) single vertices of the even class are small, have d
    neighbours and are 2-linked, in both the scan and the profile keys."""
    singles = table.get((1, d, True), table.get((1, d)))
    if singles != 1 << (d - 1):
        return f"{singles} single-vertex sets, expected {1 << (d - 1)}"
    return None


def check_cache_hit(pair, d: int) -> Optional[str]:
    hit, miss = pair
    if hit != miss:
        return "cache hit differs from the table the miss wrote"
    return check_small_sets(hit, d)


def check_case_scan(result) -> Optional[str]:
    """Published outcome: cases 2 and 3 hold from d = 2 on, case 4 fails at
    every d in [14, 200]."""
    if any(result[c]["d0"] != 2 or result[c]["fails"] for c in ("case2", "case3")):
        return "cases 2 and 3 should hold from d = 2"
    if result["case4"]["d0"] is not None or \
            not set(range(14, 201)) <= set(result["case4"]["fails"]):
        return "case 4 should fail on [14, 200]"
    return None


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _count_call(spec: str, **expect) -> Call:
    return Call(f"count {spec}",
                lambda payload: check_sequence(payload, **expect),
                argv=("count", "--graph", spec, "--format", "json"))


def _build_count(rng: random.Random, tiny: bool) -> list[Call]:
    calls = []
    for d in (2, 3, 4) if tiny else (2, 3, 4, 5):
        calls.append(_count_call(f"qd:{d}", expected=orc.HYPERCUBE_SEQUENCES[d],
                                 total=orc.HYPERCUBE_TOTALS[d]))
    # Family sizes are fixed; the seed draws offsets and random graphs.
    k = 2 if tiny else 8
    for a, b in zip(_spread(1, 12, k), reversed(_spread(1, 12, k))):
        calls.append(_count_call(f"knn:{a},{b}", expected=orc.knn_sequence(a, b)))
    for d in _spread(2, 13, k * 3 // 4):
        calls.append(_count_call(f"crown:{d}", expected=orc.crown_sequence(d)))
    for n in _spread(8, 24, k * 3 // 4):
        n += n % 2
        offsets = sorted(rng.sample(range(1, n // 2, 2), min(2, n // 4)))
        edges = orc.circulant_edges(n, offsets)
        calls.append(_count_call(f"circ:{n}," + ",".join(map(str, offsets)),
                                 low=orc.low_order_counts(n, edges)))
    for n in _spread(3, 26, k):
        calls.append(_count_call(f"cycle:{n}", expected=orc.cycle_sequence(n),
                                 total=orc.lucas(n)))
    for n in _spread(1, 28, k):
        calls.append(_count_call(f"path:{n}", expected=orc.path_sequence(n),
                                 total=orc.fibonacci(n + 2)))
    calls.append(_count_call("aems", expected=orc.AEMS_SEQUENCE))
    for i in range(k):
        copies = 2 + i % 3
        d = max(1, 14 // copies - i // 3)
        edges = [(c * 2 * d + u, c * 2 * d + d + v) for c in range(copies)
                 for u in range(d) for v in range(d)]
        spec = _write_graph(f"union{i}.txt", 2 * d * copies, edges)
        calls.append(_count_call(spec, expected=orc.knn_union_sequence(copies, d)))
    # Random balanced bipartite graphs: the side-profile path, 2^side steps.
    # Side 16 comes four times so that call_p90_ms sits in the middle of a
    # run of side-16 graphs rather than on the step down to side 15.
    sides = (5, 6, 7) if tiny else (14, 15, 15, 16, 16, 16, 16, 17, 18)
    for i, side in enumerate(sides):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            edges = _random_bipartite(rng, side, p)
            spec = _write_graph(f"bip{i}_{side}_{p.numerator}{p.denominator}.txt",
                                2 * side, edges)
            # both sides are independent sets of size `side`
            calls.append(_count_call(spec, low=orc.low_order_counts(2 * side, edges),
                                     at_least=((side, 2),)))
    # Non-bipartite G(n, p): the branching path.  Sparser graphs branch
    # longer and their cost varies from draw to draw, so p grows with n to
    # keep every one below the side-profile graphs where call_p90_ms sits.
    for i, n in enumerate(_spread(10, 16, 4) if tiny else _spread(20, 40, 40)):
        p = Fraction(1, 4) if n < 30 else Fraction(1, 3) if n < 36 else Fraction(1, 2)
        edges = _random_gnp(rng, n, p)
        spec = _write_graph(f"gnp{i}.txt", n, edges)
        calls.append(_count_call(spec, low=orc.low_order_counts(n, edges)))
    return calls


# ---------------------------------------------------------------------------
# percolate
# ---------------------------------------------------------------------------

def _build_percolate(rng: random.Random, tiny: bool) -> list[Call]:
    """Experiments over every (n, p) cell: sparse, often disconnected
    samples at p = 1/4 and near-complete ones at p = 3/4.  A trial costs
    about 7 ms at n = 12, 20 ms at n = 14 and 85 ms at n = 16, so the cheap
    cells get more experiments (two trials each at n = 12) and the n = 16
    ones, the slowest sixth of the calls, hold call_p90_ms."""
    quarter, half, three = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)
    sizes = {6: 2, 8: 1} if tiny else {12: 16, 14: 12, 16: 6}
    calls = []
    for n, count in sizes.items():
        trials = 2 if n == min(sizes) else 1
        for p in (quarter, half, three):
            for _ in range(count):
                seed = rng.randrange(1 << 32)
                calls.append(Call(
                    f"percolate knn:{n},{n} p={_frac(p)} seed={seed}",
                    lambda payload, n=n, p=p, seed=seed, trials=trials:
                        check_percolation(payload, n, p, seed, trials),
                    argv=("percolate", "--base", f"knn:{n},{n}", "--p", _frac(p),
                          "--seed", str(seed), "--trials", str(trials),
                          "--format", "json")))
    return calls


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _regular_corpus(rng: random.Random, tiny: bool):
    """(spec, |V|, degree, exact sequence) of regular bipartite graphs.  The
    sizes are fixed, so the small CLI calls, where call_p50_ms sits, cost
    the same for every seed; the seed picks the circulant offsets."""
    out = [(f"qd:{d}", 1 << d, d, orc.HYPERCUBE_SEQUENCES[d])
           for d in ((3, 4) if tiny else (3, 4, 5))]
    for d in (4,) if tiny else (4, 8):
        out.append((f"knn:{d},{d}", 2 * d, d, orc.knn_sequence(d, d)))
    for d in (5,) if tiny else (6, 10):
        out.append((f"crown:{d}", 2 * d, d - 1, orc.crown_sequence(d)))
    for n in (12,) if tiny else (12, 16):
        offsets = sorted(rng.sample(range(1, n // 2, 2), 2))
        spec = f"circ:{n}," + ",".join(map(str, offsets))
        out.append((spec, n, 2 * len(offsets),
                    orc.enumerate_sequence(n, orc.circulant_edges(n, offsets))))
    return out


def _cli(label: str, argv, check: Check) -> Call:
    return Call(label, check, argv=tuple(argv) + ("--format", "json"))


def _build_certify(rng: random.Random, tiny: bool) -> list[Call]:
    calls = []
    for spec, nverts, deg, seq in _regular_corpus(rng, tiny):
        n = nverts // 2
        calls.append(_cli(f"bounds {spec}", ("bounds", "--graph", spec),
                          lambda p, nv=nverts, dg=deg, s=seq: check_bounds(p, nv, dg, s)))
        for prop in ("unimodal", "final-third"):
            calls.append(_cli(f"check {prop} {spec}",
                              ("check", "--graph", spec, "--property", prop),
                              lambda p, pr=prop, s=seq: check_shape(p, pr, s)))
        beta, gamma = rng.choice([Fraction(0), Fraction(1, 10), Fraction(1, 5)]), \
            rng.choice([Fraction(0), Fraction(1, 10), Fraction(1, 5)])
        step = rng.randint(1, 2)
        calls.append(_cli(
            f"check bgs {spec}",
            ("check", "--graph", spec, "--property", "bgs", "--beta", _frac(beta),
             "--gamma", _frac(gamma), "--step", str(step)),
            lambda p, s=seq, n=n, b=beta, g=gamma, st=step:
                check_shape(p, "bgs", s, n, b, g, st)))
    for d in (3, 4) if tiny else (3, 4, 5):
        calls.append(_cli(f"transition {d}", ("transition", "--d", str(d)),
                          lambda p, d=d: check_transition(p, d)))
    for d in (3, 4) if tiny else (3, 4, 5, 6, 3, 4, 5, 6):
        parity = rng.randint(0, 1)
        pool = [v for v in range(1 << d) if bin(v).count("1") % 2 == parity]
        verts = sorted(rng.sample(pool, rng.randint(1, 4)))
        if rng.random() < 0.25:      # a mixed-parity set: no 2-components
            verts = sorted(set(verts) | {rng.choice([v for v in range(1 << d)
                                                     if v not in pool])})
        calls.append(_cli(f"cube-structure {d} {verts}",
                          ("cube-structure", "--d", str(d), "--set",
                           ",".join(map(str, verts))),
                          lambda p, d=d, v=verts: check_structure(p, d, v)))
    # Estimate windows.  The seeded t of a call are spread over
    # (0, 2^(d-1)) so the calls cross both density windows; c = 1/4 on every
    # other call opens the lower window at these d.  Exact Fraction powers
    # make a call cost about d^2, so the 28 one-t calls at dimensions 96 to
    # 192 form the slowest fifth of the calls, where call_p90_ms sits.  A t
    # below about a tenth of 2^(d-1) makes a call some 15 times cheaper, so
    # those calls take their t from consecutive slices of the range in order
    # of d: every seed has its cheap ones at the same, smallest dimensions.
    small_d = (16, 24) if tiny else (16, 24, 32, 48, 64)
    large_d = [] if tiny else [96 + 96 * i // 27 for i in range(28)]
    windows = [(d, _strata(rng, 1, 999, 2)) for d in small_d for _ in range(2)]
    windows += [(d, [f]) for d, f in zip(large_d, _strata(rng, 1, 999, len(large_d)))]
    for j, (d, fracs) in enumerate(windows):
        ts = [(1 << (d - 1)) * f // 1000 for f in fracs]
        args = ["cube-window", "--d", str(d)]
        for t in ts:
            args += ["--t", str(t)]
        if j % 2:
            args = ["--c-constant", "1/4"] + args
        calls.append(_cli(f"cube-window {d} {fracs}", args,
                          lambda p, d=d, ts=ts: check_window(p, d, ts)))
    calls.extend(_cube_library_calls(tiny))
    calls.append(Call("case_scan 200", check_case_scan,
                      fn=lambda ctx: ctx.lib.cube_estimates.case_scan(200)))
    return calls


def _small_sets(ctx: PassContext, d: int, kind: str):
    cache = os.path.join(ctx.scratch, f"cache-{kind}-{d}")
    if kind == "scan":
        return ctx.lib.cube.small_set_scan(d, cache_dir=cache)
    return ctx.lib.cube.small_profile(d, cache_dir=cache)


def _miss(ctx: PassContext, d: int, kind: str):
    table = ctx.results[kind, d] = _small_sets(ctx, d, kind)
    return table


def _hit(ctx: PassContext, d: int, kind: str):
    return _small_sets(ctx, d, kind), ctx.results[kind, d]


def _cube_library_calls(tiny: bool) -> list[Call]:
    """Against a fresh cache directory per pass: small_set_scan and
    small_profile twice each (a miss that writes, then a hit that must read
    back the same table), then the small-set upper bound and the scattered
    lower bound at every size."""
    calls = []
    for d in (3, 4) if tiny else (3, 4, 5):
        exact = orc.HYPERCUBE_SEQUENCES[d]
        for kind in ("scan", "profile"):
            calls.append(Call(f"{kind} {d} miss",
                              lambda table, d=d: check_small_sets(table, d),
                              fn=lambda ctx, d=d, k=kind: _miss(ctx, d, k)))
            calls.append(Call(f"{kind} {d} hit",
                              lambda pair, d=d: check_cache_hit(pair, d),
                              fn=lambda ctx, d=d, k=kind: _hit(ctx, d, k)))
        for t in range(len(exact)):
            calls.append(Call(
                f"eq_upper_small_sets {d} {t}", _bounded_by(exact[t], upper=True),
                fn=lambda ctx, d=d, t=t: ctx.lib.cube.eq_upper_small_sets(
                    d, t, profile=ctx.results["profile", d])))
        for t in range(3, len(exact)):
            f = min(2, (t - 1) // 2)
            calls.append(Call(
                f"lower_bound_scattered {d} {t}", _bounded_by(exact[t], upper=False),
                fn=lambda ctx, d=d, t=t, f=f: ctx.lib.cube.lower_bound_scattered(d, t, f)))
    return calls
