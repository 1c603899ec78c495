"""Exact structure combinatorics on the discrete hypercube Q_d: outer
neighborhoods N(A), closures [A] and 2-components within one class,
plus the two enumeration inequalities that bracket the size-t count
i_t(Q_d) from below (sparse one-sided sets) and above (small-set scan).
The sparse sets are the independent sets of the halved cube (the even
class, joined at distance 2), which the exact module's engine counts.

Vertex v of Q_d is the integer whose binary digits are the coordinates;
a vertex set is a Python-int bitset of width 2**d.  Set functions that
return a vertex set return a VertexSet; two_components returns each piece
as a sorted tuple of vertices, so a set of a few thousand vertices of Q_20
is not copied into one 2**20-bit integer per piece.
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
from .exact import _binom, _binom_sum, count_by_size
from .graphs import Graph

BITSET_DIM_CAP = 20          # neighborhood/closure ops
SMALL_SCAN_DIM_CAP = 5       # walks over small subsets of one class; they
                             # start at d = 2, the least d with 2**(d-2) >= 1
SPARSE_LOWER_DIM_CAP = 6     # the largest d whose Q_d the engine counts, so
                             # every scattered-set bound is checked by i_t

SIDE_EVEN = "E"
SIDE_ODD = "O"
SIDE_MIXED = "mixed"


def _check_dim(d: int, cap: float = BITSET_DIM_CAP, low: int = 1) -> None:
    """Raise ValueError unless low <= d <= cap (cap may be math.inf)."""
    if d < low or d > cap:
        raise ValueError(f"dimension d = {d} outside [{low}, {cap}]")


@dataclass(frozen=True)
class VertexSet:
    """A set of vertices of Q_d, 1 <= d <= BITSET_DIM_CAP, as a bitset of
    width 2**d; the set functions below read the dimension from here."""

    d: int
    bits: int

    def __post_init__(self):
        _check_dim(self.d)
        if not 0 <= self.bits < 1 << (1 << self.d):
            raise ValueError(f"bitset is not a vertex set of Q_{self.d}")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def side(self) -> str:
        evens = self.bits & _even_mask(self.d)
        if evens and evens != self.bits:
            return SIDE_MIXED
        return SIDE_ODD if self.bits and not evens else SIDE_EVEN

    def vertices(self) -> list[int]:
        """The vertices in ascending order, found in one right-to-left pass
        over the binary digits: peeling the lowest bit off the set, as
        graphs._bits_of does, rewrites all 2**d bits at every vertex."""
        digits = bin(self.bits)
        top = len(digits) - 1
        out = []
        i = digits.rfind("1")
        while i >= 0:
            out.append(top - i)
            i = digits.rfind("1", 0, i)
        return out


def _even_mask(d: int) -> int:
    """The vertices of Q_d of even weight as a 2**d-bit set, by doubling:
    the even vertices below 2**(k+1) are those below 2**k and, shifted up
    by 2**k, the odd ones below 2**k."""
    evens, odds = 1, 0
    for k in range(d):
        evens, odds = evens | odds << (1 << k), odds | evens << (1 << k)
    return evens


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


def _adjacent(d: int, bits: int) -> int:
    """The vertices of Q_d with a neighbour in the set bits: the OR over the
    coordinates k of the set with coordinate k flipped.  A vertex v with
    bit k clear moves up by 2**k and one with bit k set moves down, so the
    flip is (X & M_k) << 2**k | (X >> 2**k) & M_k, M_k the vertices with
    bit k clear: runs of 2**k ones and zeros, built by doubling."""
    size = 1 << d
    out = 0
    for k in range(d):
        step = 1 << k
        mask, period = (1 << step) - 1, 2 * step
        while period < size:
            mask |= mask << period
            period *= 2
        out |= (bits & mask) << step | (bits >> step) & mask
    return out


def _nbhd_bits(d: int, bits: int) -> int:
    return _adjacent(d, bits) & ~bits


def neighborhood(a: VertexSet) -> VertexSet:
    """Outer neighborhood N(A): vertices outside A adjacent to some vertex
    of A."""
    return VertexSet(a.d, _nbhd_bits(a.d, a.bits))


def closure(a: VertexSet) -> VertexSet:
    """[A] = {v : N({v}) is contained in N(A)}, implemented literally; for
    non-independent A this can exclude members of A.  A vertex fails the
    test exactly when it has a neighbour outside N(A), so
    [A] = V minus the vertices adjacent to V minus N(A)."""
    d = a.d
    full = (1 << (1 << d)) - 1
    return VertexSet(d, full ^ _adjacent(d, full ^ _nbhd_bits(d, a.bits)))


def two_components(a: VertexSet) -> list[tuple[int, ...]]:
    """Partition of A (inside one parity class) into maximal 2-linked
    pieces, each a sorted tuple of vertices, in order of their lowest
    vertex.  Within one class two vertices lie in the same piece exactly
    when they are linked through shared neighbors, i.e. through chains of
    Hamming-distance-2 steps.  Each piece is grown from its lowest vertex
    left in A by probing the C(d, 2) flips v ^ (2**i | 2**j) of each of its
    vertices against the set of A's vertices, so the work grows with
    |A| * d**2, not with 2**d."""
    if a.side == SIDE_MIXED:
        raise ValueError("2-component decomposition expects A within one "
                         "parity class")
    d = a.d
    steps = [1 << i ^ 1 << j for i in range(d) for j in range(i)]
    verts = a.vertices()
    left = set(verts)
    out = []
    for v in verts:
        if v not in left:
            continue
        left.remove(v)
        piece = [v]
        for u in piece:
            for step in steps:
                w = u ^ step
                if w in left:
                    left.remove(w)
                    piece.append(w)
        out.append(tuple(sorted(piece)))
    return out


@dataclass(frozen=True)
class StructureStats:
    size: int
    nbhd: int
    closure: int
    small: bool
    comps: Optional[int]      # None for mixed-parity sets, where the
    max_comp: Optional[int]   # 2-component decomposition is not defined
    components: Optional[tuple[tuple[int, ...], ...]]   # likewise


def structure_stats(a: VertexSet) -> StructureStats:
    d = a.d
    _check_dim(d, low=2)
    na = neighborhood(a)
    cl = closure(a)
    comps = None if a.side == SIDE_MIXED else tuple(two_components(a))
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

def _even_rows(d: int) -> list[int]:
    """Row i: the neighbours of the i-th even vertex as a bitset over the
    odd class, odd vertex u at bit u >> 1.  Both classes hold exactly one
    of 2m, 2m + 1 for each m, so index m names one vertex of each; flipping
    coordinate 0 of the even vertex of index i gives the odd vertex of
    index i, and flipping coordinate k >= 1 gives index i ^ 2**(k-1)."""
    return [1 << i | sum(1 << (i ^ 1 << k) for k in range(d - 1))
            for i in range(1 << (d - 1))]


def _closure_tables(rows: list[int]) -> tuple[list[int], list[int]]:
    """Tables lo, hi with [A] = lo[g & 255] & hi[g >> 8] as a bitset over
    even indices, g = N(A) over the odd class (rows from _even_rows, at
    most 16 bits since d <= 5).  lo[b] holds the even vertices whose row
    has its bits 0..7 inside b, hi the same for bits 8..15, so the AND
    holds exactly those whose whole row lies inside g.  Each table starts
    with every vertex at its own row chunk and is closed upwards by one
    subset-zeta pass: after bit k, entry b holds every chunk inside b that
    differs from b in bits 0..k only."""
    tables = []
    for shift in (0, 8):
        width = min(8, max(0, len(rows) - shift))
        size = 1 << width
        table = [0] * size
        for e, row in enumerate(rows):
            table[row >> shift & size - 1] |= 1 << e
        for k in range(width):
            bit = 1 << k
            for b in range(size):
                if b & bit:
                    table[b] |= table[b ^ bit]
        tables.append(table)
    return tables[0], tables[1]


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
    {0}, if {0} is small (it is not at d = 2, where [{0}] is the whole even
    class).  A stack entry is (A, N(A), candidates, 2-components of A), and
    each of the three steps below is exact:

    - Closure size by byte tables.  [A] stays inside the even class (an
      odd vertex has its whole neighborhood in the even class, disjoint
      from N(A)), and with N(A) as a bitset over the odd class,
      |[A]| is the popcount of two table lookups (_closure_tables).
    - Candidates inherited from the parent.  A node tries each of its
      candidates i, all above its last index, and keeps the i with
      A + {i} small; child A + {i} gets the kept indices above i.  [A]
      only grows with A, so a superset of a set that is not small is not
      small either: a rejected index would be rejected again below, and
      the walk meets every small set once and tests each pair (small set,
      later index) at most once.
    - 2-linkage carried down.  Two members of one class are 2-linked when
      they are at distance 2, adjacent in the halved cube.  Adding i to A
      merges the 2-components of A that meet i's halved-cube row into one
      with i and keeps the others, so A is 2-linked exactly when one
      component is left.
    """
    rows = _even_rows(d)
    lo, hi = _closure_tables(rows)
    links = _halved_cube(d).adj  # in-class distance-2 rows, indexed as rows
    quarter = 1 << (d - 2)
    rooted: dict[tuple[int, int, bool], int] = {}
    root = rows[0]
    stack = ([(1, root, range(1, len(rows)), [1])]
             if (lo[root & 255] & hi[root >> 8]).bit_count() <= quarter
             else [])
    while stack:
        mask, nbhd, candidates, comps = stack.pop()
        key = (mask.bit_count(), nbhd.bit_count(), len(comps) == 1)
        rooted[key] = rooted.get(key, 0) + 1
        kept = []
        for i in candidates:
            grown = nbhd | rows[i]
            if (lo[grown & 255] & hi[grown >> 8]).bit_count() <= quarter:
                kept.append(i)
        for n, i in enumerate(kept):
            link = links[i]
            merged, rest = 1 << i, []
            for comp in comps:
                if comp & link:
                    merged |= comp
                else:
                    rest.append(comp)
            rest.append(merged)
            stack.append((mask | 1 << i, nbhd | rows[i], kept[n + 1:], rest))
    table = {key: (len(rows) * c) // key[0] for key, c in rooted.items()}
    table[0, 0, False] = 1
    return dict(sorted(table.items()))


def small_set_scan(d: int, cache_dir: Optional[str] = None
                   ) -> dict[tuple[int, int, bool], int]:
    """Joint counts over all small A in the even class of Q_d, keyed by
    (|A|, |N(A)|, 2-linked), keys in ascending order.  Cached to disk when
    a cache directory is given."""
    _check_dim(d, SMALL_SCAN_DIM_CAP, low=2)
    cached = _cache_load(d, "small-scan", cache_dir)
    if cached is not None:
        return {(int(a), int(g), bool(l)): int(c) for (a, g, l), c in cached}
    table = _small_scan(d)
    _cache_store(d, "small-scan",
                 [[list(k), c] for k, c in sorted(table.items())], cache_dir)
    return table


def _cache_path(d: int, predicate: str, cache_dir: Optional[str]):
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, f"cube-{predicate}-d{d}.json")


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
    lhs = Fraction(_binom(half - g, t - a))
    rhs = big_f(lambda_of_t(d, t), a, g) * _binom(half, t) \
        * reweight_error_term(d, t, a, g)
    return lhs, rhs, lhs == rhs
