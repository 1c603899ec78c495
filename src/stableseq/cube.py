"""Exact structure combinatorics on the discrete hypercube Q_d: outer
neighborhoods N(A), closures [A], smallness, 2-linkage and 2-components,
plus the two enumeration inequalities that bracket the size-t count
i_t(Q_d) from below (sparse one-sided sets) and above (small-set scan).

Vertex v of Q_d is the integer whose binary digits are the coordinates;
a vertex set is a Python-int bitset of width 2**d.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import _components
from .numerics import binom, bits_of, popcount

BITSET_DIM_CAP = 20          # neighborhood/closure ops
SMALL_SCAN_DIM_CAP = 5       # full scans over subsets of one class; they
                             # start at d = 2, the least d with 2**(d-2) >= 1
SPARSE_LOWER_DIM_CAP = 6     # backtracking enumeration for the lower bound

CACHE_ENV = "STABLESEQ_CACHE_DIR"

SIDE_EVEN = "E"
SIDE_ODD = "O"
SIDE_MIXED = "mixed"


class NotApplicableError(ValueError):
    """A formula's validity conditions fail at the requested parameters."""


def _check_dim(d: int, cap: int = BITSET_DIM_CAP, low: int = 1) -> None:
    if d < low or d > cap:
        raise ValueError(f"dimension d = {d} outside [{low}, {cap}]")


@dataclass(frozen=True)
class VertexSet:
    d: int
    bits: int

    @property
    def size(self) -> int:
        return popcount(self.bits)

    @property
    def side(self) -> str:
        evens = odds = False
        for v in bits_of(self.bits):
            if popcount(v) % 2 == 0:
                evens = True
            else:
                odds = True
        if evens and odds:
            return SIDE_MIXED
        return SIDE_ODD if odds else SIDE_EVEN

    def vertices(self) -> list[int]:
        return list(bits_of(self.bits))


def _row(d: int, v: int) -> int:
    """Neighbours of v in Q_d, as a bitset."""
    return sum(1 << (v ^ 1 << k) for k in range(d))


def _nbhd_bits(d: int, bits: int) -> int:
    out = 0
    for v in bits_of(bits):
        out |= _row(d, v)
    return out & ~bits


def neighborhood(d: int, a: VertexSet) -> VertexSet:
    """Outer neighborhood N(A): vertices outside A adjacent to some vertex
    of A."""
    _check_dim(d)
    return VertexSet(d, _nbhd_bits(d, a.bits))


def closure(d: int, a: VertexSet) -> VertexSet:
    """[A] = {v : N({v}) is contained in N(A)}, implemented literally; for
    non-independent A this can exclude members of A."""
    _check_dim(d)
    na = _nbhd_bits(d, a.bits)
    out = 0
    for v in range(1 << d):
        if _row(d, v) & ~na == 0:
            out |= 1 << v
    return VertexSet(d, out)


def is_small(d: int, a: VertexSet) -> bool:
    """A is small when |[A]| <= 2**(d-2)."""
    if d < 2:
        raise ValueError("smallness needs d >= 2")
    return closure(d, a).size <= 1 << (d - 2)


def two_components(d: int, a: VertexSet) -> list[VertexSet]:
    """Partition of A (inside one parity class) into maximal 2-linked
    pieces, in order of their lowest vertex.  Within one class two vertices
    lie in the same piece exactly when they are linked through shared
    neighbors, i.e. through chains of Hamming-distance-2 steps."""
    _check_dim(d)
    if a.side == SIDE_MIXED:
        raise ValueError("2-component decomposition expects A within one "
                         "parity class")
    steps = [1 << i ^ 1 << j for i in range(d) for j in range(i)]
    rows = {v: sum(1 << (v ^ step) for step in steps)
            for v in bits_of(a.bits)}
    return [VertexSet(d, c) for c in _components(rows, a.bits)]


def is_two_linked(d: int, a: VertexSet) -> bool:
    """Connectivity of the subgraph induced by A together with N(A); works
    for mixed-parity A."""
    _check_dim(d)
    region = a.bits | _nbhd_bits(d, a.bits)
    rows = {v: _row(d, v) for v in bits_of(region)}
    return len(_components(rows, region)) == 1


@dataclass(frozen=True)
class StructureStats:
    size: int
    nbhd: int
    closure: int
    small: bool
    comps: Optional[int]      # None for mixed-parity sets, where the
    max_comp: Optional[int]   # 2-component decomposition is not defined


def structure_stats(d: int, a: VertexSet) -> StructureStats:
    _check_dim(d, low=2)
    na = neighborhood(d, a)
    cl = closure(d, a)
    mixed = a.side == SIDE_MIXED
    comps = two_components(d, a) if not mixed else None
    return StructureStats(
        size=a.size,
        nbhd=na.size,
        closure=cl.size,
        small=cl.size <= 1 << (d - 2),
        comps=len(comps) if comps is not None else None,
        max_comp=(max((c.size for c in comps), default=0)
                  if comps is not None else None),
    )


def structure_stats_json(d: int, a: VertexSet) -> str:
    st = structure_stats(d, a)
    return json.dumps({
        "d": d, "set": sorted(a.vertices()), "size": st.size,
        "nbhd": st.nbhd, "closure": st.closure, "small": st.small,
        "comps": st.comps, "max_comp": st.max_comp,
    }, sort_keys=True)


# ---------------------------------------------------------------------------
# Full scans over subsets of the even class
# ---------------------------------------------------------------------------

def _small_scan(d: int) -> dict:
    """Scan all subsets A of the even class, recording (|A|, |N(A)|,
    2-linked) for the small A only.

    A subset with |A| > 2**(d-2) is never small (A is independent inside
    the class, so A is contained in [A]); its closure is not computed.  [A]
    stays inside the even class: an odd vertex has its whole neighborhood in
    the even class, disjoint from N(A).  So [A] is counted over the even
    class only.
    """
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    rows = [_row(d, v) for v in evens]
    # in-class distance-2 rows, over positions in evens
    links = [sum(1 << j for j, w in enumerate(evens) if popcount(v ^ w) == 2)
             for v in evens]
    quarter = 1 << (d - 2)
    table: dict[tuple[int, int, bool], int] = {}
    for mask in range(1 << len(evens)):
        size = mask.bit_count()
        if size > quarter:
            continue
        nbhd = 0
        for i in bits_of(mask):
            nbhd |= rows[i]
        closed = 0
        for row in rows:
            if row | nbhd == nbhd:
                closed += 1
        if closed > quarter:
            continue
        key = (size, nbhd.bit_count(), len(_components(links, mask)) == 1)
        table[key] = table.get(key, 0) + 1
    return table


def small_set_scan(d: int, cache_dir: Optional[str] = None
                   ) -> dict[tuple[int, int, bool], int]:
    """Joint counts over all small A in the even class of Q_d, keyed by
    (|A|, |N(A)|, 2-linked).  Cached to disk when a cache directory is
    configured (argument or STABLESEQ_CACHE_DIR)."""
    _check_dim(d, SMALL_SCAN_DIM_CAP, low=2)
    cached = _cache_load(d, "small-scan", cache_dir)
    if cached is not None:
        return {(int(a), int(g), bool(l)): int(c) for (a, g, l), c in cached}
    table = _small_scan(d)
    _cache_store(d, "small-scan",
                 [[list(k), c] for k, c in sorted(table.items())], cache_dir)
    return table


def _cache_path(d: int, predicate: str, cache_dir: Optional[str]):
    root = cache_dir or os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, f"cube-{predicate}-d{d}.json")


def _cache_store(d: int, predicate: str, data, cache_dir) -> None:
    path = _cache_path(d, predicate, cache_dir)
    if path is None:
        return
    payload = json.dumps(data, sort_keys=True)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    # Write a temporary file beside the target and rename it into place, so
    # a write that fails part-way leaves any earlier cache file intact.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            json.dump({"d": d, "predicate": predicate, "sha256": digest,
                       "data": data}, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_load(d: int, predicate: str, cache_dir):
    path = _cache_path(d, predicate, cache_dir)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            blob = json.load(fh)
        payload = json.dumps(blob["data"], sort_keys=True)
        if hashlib.sha256(payload.encode("ascii")).hexdigest() != blob["sha256"]:
            return None
        if blob.get("d") != d or blob.get("predicate") != predicate:
            return None
        return blob["data"]
    except (OSError, ValueError, KeyError):
        return None


def small_profile(d: int, cache_dir: Optional[str] = None
                  ) -> dict[tuple[int, int], int]:
    """Counts of small A in the even class keyed by (|A|, |N(A)|)."""
    out: dict[tuple[int, int], int] = {}
    for (a, g, _linked), c in small_set_scan(d, cache_dir).items():
        out[(a, g)] = out.get((a, g), 0) + c
    return out


# ---------------------------------------------------------------------------
# Upper bound: small-set scan
# ---------------------------------------------------------------------------

def eq_upper_small_sets(d: int, t: int, profile=None) -> int:
    """Rigorous upper bound on i_t(Q_d):
    2 * sum over small A in the even class of C(2**(d-1) - |N(A)|, t - |A|).
    """
    _check_dim(d, SMALL_SCAN_DIM_CAP, low=2)
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    if profile is None:
        profile = small_profile(d)
    total = 0
    for (a, g), c in profile.items():
        if t - a >= 0:
            total += c * binom(half - g, t - a)
    return 2 * total


# ---------------------------------------------------------------------------
# Lower bound: scattered one-sided sets
# ---------------------------------------------------------------------------

def scattered_count_by_size(d: int, kmax: int) -> dict[int, int]:
    """Exact number of A in the even class with cl(A) <= 1 and |A| = k,
    for k = 0..kmax: subsets with pairwise Hamming distance at least 4,
    counted by backtracking with distance pruning."""
    _check_dim(d, SPARSE_LOWER_DIM_CAP)
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    counts = {0: 1}

    def rec(start: int, chosen: list[int]) -> None:
        k = len(chosen)
        if k:
            counts[k] = counts.get(k, 0) + 1
        if k == kmax:
            return
        for i in range(start, len(evens)):
            v = evens[i]
            if all(popcount(v ^ u) >= 4 for u in chosen):
                chosen.append(v)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return counts


def lower_bound_scattered(d: int, t: int, f: Optional[int] = None) -> int:
    """Rigorous lower bound on i_t(Q_d):
    2 * sum over A in the even class with cl(A) <= 1, |A| <= f of
    C(2**(d-1) - d|A|, t - |A|).

    The doubling is only valid without overlap, which requires f < t/2;
    outside that the bound is refused.  The cutoff f defaults to the
    enumeration cutoff tied to the density weight of (d, t).
    """
    from .cube_estimates import f_cut
    _check_dim(d, SPARSE_LOWER_DIM_CAP)
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    if f is None:
        f = f_cut(d, t)
    if 2 * f >= t:
        raise NotApplicableError(
            f"cutoff f = {f} is not below t/2 = {Fraction(t, 2)}; the "
            "doubled one-sided sum would overlap")
    kmax = min(f, t)
    counts = scattered_count_by_size(d, kmax)
    total = 0
    for k, c in counts.items():
        if t - k >= 0:
            total += c * binom(half - d * k, t - k)
    return 2 * total


# ---------------------------------------------------------------------------
# The binomial re-weighting identity
# ---------------------------------------------------------------------------

def reweight_error_term(d: int, t: int, a: int, g: int) -> Fraction:
    """E(a, g): the exact correction in the identity below, a triple product
    of falling-factorial ratios."""
    half = 1 << (d - 1)
    if (a > 0 and t == 0) or (g - a > 0 and t == half):
        raise NotApplicableError("degenerate factor in E(a, g)")
    num = Fraction(1)
    for i in range(a):
        num *= 1 - Fraction(i, t)
    for i in range(g - a):
        num *= 1 - Fraction(i, half - t)
    den = Fraction(1)
    for i in range(g):
        den *= 1 - Fraction(i, half)
    if den == 0:
        raise NotApplicableError("degenerate denominator in E(a, g)")
    return num / den


def identity_reweight_check(d: int, t: int, a: int, g: int
                            ) -> tuple[Fraction, Fraction, bool]:
    """Exact check of
    C(2**(d-1) - g, t - a) = F_{lam(t)}(a, g) * C(2**(d-1), t) * E(a, g)
    with lam(t) = t / (2**(d-1) - t).  Returns (lhs, rhs, equal).

    The extreme t in {0, 2**(d-1)} are refused: lam(t) or the products in
    E(a, g) degenerate there.
    """
    from .cube_estimates import big_f, lambda_of_t
    half = 1 << (d - 1)
    if not (0 <= a <= g):
        raise ValueError("need 0 <= a <= g")
    if t - a < 0:
        raise ValueError("need t >= a")
    if t == 0 or t == half:
        raise NotApplicableError("extreme t: identity factors degenerate")
    lhs = Fraction(binom(half - g, t - a))
    rhs = big_f(lambda_of_t(d, t), a, g) * binom(half, t) \
        * reweight_error_term(d, t, a, g)
    return lhs, rhs, lhs == rhs
