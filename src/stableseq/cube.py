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

from .numerics import binom, bits_of, popcount

BITSET_DIM_CAP = 20          # neighborhood/closure ops
SMALL_SCAN_DIM_CAP = 5       # full scans over subsets of one class
SPARSE_LOWER_DIM_CAP = 6     # backtracking enumeration for the lower bound

CACHE_ENV = "STABLESEQ_CACHE_DIR"

SIDE_EVEN = "E"
SIDE_ODD = "O"
SIDE_MIXED = "mixed"


class NotApplicableError(ValueError):
    """A formula's validity conditions fail at the requested parameters."""


def _check_dim(d: int, cap: int = BITSET_DIM_CAP) -> None:
    if d < 1 or d > cap:
        raise ValueError(f"dimension d = {d} outside [1, {cap}]")


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


def even_class_mask(d: int) -> int:
    return sum(1 << v for v in range(1 << d) if popcount(v) % 2 == 0)


def _nbhd_bits(d: int, bits: int) -> int:
    out = 0
    for v in bits_of(bits):
        for k in range(d):
            out |= 1 << (v ^ (1 << k))
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
        nv = 0
        for k in range(d):
            nv |= 1 << (v ^ (1 << k))
        if nv & ~na == 0:
            out |= 1 << v
    return VertexSet(d, out)


def _closure_size_one_class(d: int, bits: int, class_vertices, adj) -> int:
    # For nonempty A inside one class, [A] stays inside that class: a vertex
    # of the other class has its whole neighborhood in A's class, disjoint
    # from N(A).
    if bits == 0:
        return 0
    na = 0
    for v in bits_of(bits):
        na |= adj[v]
    na &= ~bits
    cnt = 0
    for v in class_vertices:
        if adj[v] & ~na == 0:
            cnt += 1
    return cnt


def is_small(d: int, a: VertexSet) -> bool:
    """A is small when |[A]| <= 2**(d-2)."""
    if d < 2:
        raise ValueError("smallness needs d >= 2")
    return closure(d, a).size <= 1 << (d - 2)


def two_components(d: int, a: VertexSet) -> list[VertexSet]:
    """Partition of A (inside one parity class) into maximal 2-linked
    pieces.  Within one class two vertices lie in the same piece exactly
    when they are linked through shared neighbors, i.e. through chains of
    Hamming-distance-2 steps."""
    _check_dim(d)
    if a.side == SIDE_MIXED:
        raise ValueError("2-component decomposition expects A within one "
                         "parity class")
    verts = a.vertices()
    comps = []
    unseen = set(range(len(verts)))
    while unseen:
        start = min(unseen)
        stack = [start]
        unseen.discard(start)
        members = [verts[start]]
        while stack:
            i = stack.pop()
            for j in list(unseen):
                if popcount(verts[i] ^ verts[j]) == 2:
                    unseen.discard(j)
                    stack.append(j)
                    members.append(verts[j])
        comps.append(VertexSet(d, sum(1 << v for v in members)))
    return comps


def is_two_linked(d: int, a: VertexSet) -> bool:
    """Connectivity of the subgraph induced by A together with N(A); works
    for mixed-parity A via explicit traversal."""
    _check_dim(d)
    if a.bits == 0:
        return False
    region = a.bits | _nbhd_bits(d, a.bits)
    start = (region & -region).bit_length() - 1
    seen = 1 << start
    stack = [start]
    while stack:
        v = stack.pop()
        for k in range(d):
            w = v ^ (1 << k)
            wb = 1 << w
            if region & wb and not seen & wb:
                seen |= wb
                stack.append(w)
    return seen == region


@dataclass(frozen=True)
class StructureStats:
    size: int
    nbhd: int
    closure: int
    small: bool
    comps: Optional[int]      # None for mixed-parity sets, where the
    max_comp: Optional[int]   # 2-component decomposition is not defined


def structure_stats(d: int, a: VertexSet) -> StructureStats:
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
    """Scan all subsets A of the even class: Gray-code walk maintaining the
    neighborhood union, recording (|A|, |N(A)|, 2-linked) for the small A
    only.

    A subset with |A| > 2**(d-2) is never small (A is independent inside
    the class, so A is contained in [A]); its closure is not computed.
    """
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    adj = [sum(1 << (v ^ (1 << k)) for k in range(d)) for v in range(1 << d)]
    nbr_list = [[v ^ (1 << k) for k in range(d)] for v in range(1 << d)]
    m = len(evens)
    quarter = 1 << (d - 2)
    cover = [0] * (1 << d)
    nbits = 0
    abits = 0
    size = 0

    def apply(idx, add):
        nonlocal nbits, abits, size
        v = evens[idx]
        if add:
            size += 1
            abits |= 1 << v
            for w in nbr_list[v]:
                if cover[w] == 0:
                    nbits |= 1 << w
                cover[w] += 1
        else:
            size -= 1
            abits &= ~(1 << v)
            for w in nbr_list[v]:
                cover[w] -= 1
                if cover[w] == 0:
                    nbits &= ~(1 << w)

    table: dict[tuple[int, int, bool], int] = {}

    def record():
        if size > quarter:
            return
        if size == 0:
            table[(0, 0, False)] = table.get((0, 0, False), 0) + 1
            return
        cl_size = _closure_size_one_class(d, abits, evens, adj)
        if cl_size > quarter:
            return
        g = popcount(nbits)
        linked = _linked_within_class(abits)
        key = (size, g, linked)
        table[key] = table.get(key, 0) + 1

    record()
    for i in range(1, 1 << m):
        flip = (i & -i).bit_length() - 1
        apply(flip, bool((i ^ (i >> 1)) >> flip & 1))
        record()
    return table


def _linked_within_class(abits: int) -> bool:
    verts = list(bits_of(abits))
    k = len(verts)
    if k == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(k):
            if j not in seen and popcount(verts[i] ^ verts[j]) == 2:
                seen.add(j)
                stack.append(j)
    return len(seen) == k


def small_set_scan(d: int, cache_dir: Optional[str] = None
                   ) -> dict[tuple[int, int, bool], int]:
    """Joint counts over all small A in the even class of Q_d, keyed by
    (|A|, |N(A)|, 2-linked).  Cached to disk when a cache directory is
    configured (argument or STABLESEQ_CACHE_DIR)."""
    _check_dim(d, SMALL_SCAN_DIM_CAP)
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
    _check_dim(d, SMALL_SCAN_DIM_CAP)
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
