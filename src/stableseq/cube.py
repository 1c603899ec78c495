"""Exact structure combinatorics on the discrete hypercube Q_d: outer
neighborhoods N(A), closures [A], smallness, 2-linkage and 2-components,
plus the two enumeration inequalities that bracket the size-t count
i_t(Q_d) from below (sparse one-sided sets) and above (small-set scan).
The sparse sets are the independent sets of the halved cube (the even
class, joined at distance 2), which the exact module's engine counts.

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

from .cube_estimates import NotApplicableError, big_f, f_cut, lambda_of_t
from .exact import _binom_sum, count_by_size
from .graphs import Graph, _components, _cube_row
from .numerics import binom, bits_of, popcount

BITSET_DIM_CAP = 20          # neighborhood/closure ops
SMALL_SCAN_DIM_CAP = 5       # walks over small subsets of one class; they
                             # start at d = 2, the least d with 2**(d-2) >= 1
SPARSE_LOWER_DIM_CAP = 6     # the largest d whose Q_d the engine counts, so
                             # every scattered-set bound is checked by i_t

CACHE_ENV = "STABLESEQ_CACHE_DIR"

SIDE_EVEN = "E"
SIDE_ODD = "O"
SIDE_MIXED = "mixed"


def _check_dim(d: int, cap: float = BITSET_DIM_CAP, low: int = 1) -> None:
    """Raise ValueError unless low <= d <= cap (cap may be math.inf)."""
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


def vertex_set(d: int, vertices) -> VertexSet:
    """The set of the listed vertices of Q_d; a vertex outside Q_d or
    listed twice is an error."""
    _check_dim(d, low=2)
    bits = 0
    for v in vertices:
        if not 0 <= v < 1 << d:
            raise ValueError(f"vertex {v} is not a vertex of Q_{d}")
        if bits >> v & 1:
            raise ValueError(f"vertex {v} is listed twice")
        bits |= 1 << v
    return VertexSet(d, bits)


def _nbhd_bits(d: int, bits: int) -> int:
    out = 0
    rest = bits
    while rest:
        low = rest & -rest
        out |= _cube_row(d, low.bit_length() - 1)
        rest ^= low
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
        if _cube_row(d, v) & ~na == 0:
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
    rows = {v: _cube_row(d, v) for v in bits_of(region)}
    return len(_components(rows, region)) == 1


@dataclass(frozen=True)
class StructureStats:
    size: int
    nbhd: int
    closure: int
    small: bool
    comps: Optional[int]      # None for mixed-parity sets, where the
    max_comp: Optional[int]   # 2-component decomposition is not defined
    components: Optional[tuple[tuple[int, ...], ...]]   # likewise


def structure_stats(d: int, a: VertexSet) -> StructureStats:
    _check_dim(d, low=2)
    na = neighborhood(d, a)
    cl = closure(d, a)
    comps = (None if a.side == SIDE_MIXED else
             tuple(tuple(c.vertices()) for c in two_components(d, a)))
    return StructureStats(
        size=a.size,
        nbhd=na.size,
        closure=cl.size,
        small=cl.size <= 1 << (d - 2),
        comps=len(comps) if comps is not None else None,
        max_comp=(max(map(len, comps), default=0)
                  if comps is not None else None),
        components=comps,
    )


def _halved_cube(d: int) -> Graph:
    """The halved cube of Q_d: the even class, two vertices adjacent when at
    Hamming distance 2.  Vertex i is the i-th even vertex in increasing
    order, the one of 2i, 2i + 1 of even weight; two of them are at distance
    2 exactly when their indices differ in one or two bits."""
    steps = [1 << i | 1 << j for i in range(d - 1) for j in range(i + 1)]
    return Graph(1 << (d - 1), tuple(sum(1 << (i ^ s) for s in steps)
                                     for i in range(1 << (d - 1))))


# ---------------------------------------------------------------------------
# Small-set walk over subsets of the even class
# ---------------------------------------------------------------------------

def _small_scan(d: int) -> dict:
    """Walk the subsets A of the even class that are small, recording
    (|A|, |N(A)|, 2-linked) for each; keys in ascending order.

    Only the sets that contain even vertex 0 are walked.  Translation by an
    even vector x, v -> v ^ x, is an automorphism of Q_d that maps the even
    class onto itself, so it keeps |A|, |N(A)|, the closure size and
    2-linkage; and these translations act transitively on the 2**(d-1) even
    vertices.  Counting the pairs (A, v) with v in A and A of key k both
    ways gives |A| * #{A of key k} = 2**(d-1) * #{A of key k containing 0},
    so each count from the walk is scaled by 2**(d-1)/|A|, a division the
    identity makes exact.  The empty set, which no walk below {0} reaches,
    is added under its own key (0, 0, False).

    The walk is depth-first over index sets in increasing index order from
    {0}, on a stack of (A, N(A), next index) entries; a child adds one
    index above the last and extends N(A) with one OR.  [A] only grows
    with A, so once |[A]| > 2**(d-2) no superset of A is small and the
    whole subtree is dropped: the walk visits the small sets and their
    direct children only.  [A] stays inside the even class (an odd vertex
    has its whole neighborhood in the even class, disjoint from N(A)), so
    it is counted over the even class only.
    """
    rows = [_cube_row(d, v) for v in range(1 << d) if popcount(v) % 2 == 0]
    links = _halved_cube(d).adj  # in-class distance-2 rows, indexed as rows
    quarter = 1 << (d - 2)
    rooted: dict[tuple[int, int, bool], int] = {}
    stack = [(1, rows[0], 1)]
    while stack:
        mask, nbhd, start = stack.pop()
        closed = 0
        for row in rows:
            if row | nbhd == nbhd:
                closed += 1
        if closed > quarter:
            continue
        key = (mask.bit_count(), nbhd.bit_count(),
               len(_components(links, mask)) == 1)
        rooted[key] = rooted.get(key, 0) + 1
        for i in range(start, len(rows)):
            stack.append((mask | 1 << i, nbhd | rows[i], i + 1))
    table = {key: (len(rows) * c) // key[0] for key, c in rooted.items()}
    table[0, 0, False] = 1
    return dict(sorted(table.items()))


def small_set_scan(d: int, cache_dir: Optional[str] = None
                   ) -> dict[tuple[int, int, bool], int]:
    """Joint counts over all small A in the even class of Q_d, keyed by
    (|A|, |N(A)|, 2-linked), keys in ascending order.  Cached to disk when a cache directory is
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
    return 2 * _binom_sum(profile, half, t)


# ---------------------------------------------------------------------------
# Lower bound: scattered one-sided sets
# ---------------------------------------------------------------------------

def scattered_count_by_size(d: int, kmax: int) -> dict[int, int]:
    """Exact number of A in the even class with cl(A) <= 1 and |A| = k, for
    the k = 0..kmax with such an A: the independent sets of the halved cube
    (pairwise Hamming distance at least 4), counted by the engine."""
    _check_dim(d, SPARSE_LOWER_DIM_CAP)
    counts = count_by_size(_halved_cube(d)).counts
    return {k: c for k, c in enumerate(counts) if k <= kmax}


def lower_bound_scattered(d: int, t: int, f: Optional[int] = None) -> int:
    """Rigorous lower bound on i_t(Q_d):
    2 * sum over A in the even class with cl(A) <= 1, |A| <= f of
    C(2**(d-1) - d|A|, t - |A|).

    The doubling is only valid without overlap, which requires f < t/2;
    outside that the bound is refused, as is a negative f.  The cutoff f
    defaults to the enumeration cutoff tied to the density weight of (d, t).
    """
    _check_dim(d, SPARSE_LOWER_DIM_CAP)
    half = 1 << (d - 1)
    if not 0 <= t <= half:
        raise ValueError("t outside [0, 2^(d-1)]")
    if f is None:
        f = f_cut(d, t)
    if f < 0:
        raise ValueError(f"cutoff f = {f} is negative")
    if 2 * f >= t:
        raise NotApplicableError(
            f"cutoff f = {f} is not below t/2 = {Fraction(t, 2)}; the "
            "doubled one-sided sum would overlap")
    counts = scattered_count_by_size(d, f)
    return 2 * _binom_sum({(k, d * k): c for k, c in counts.items()}, half, t)


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
