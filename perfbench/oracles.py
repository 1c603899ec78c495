"""Expected outputs computed without the program's code paths.

Closed forms, published totals, low-order inclusion-exclusion formulas and a
plain enumeration of independent sets.  None of this imports stableseq, so a
defect in the program cannot hide itself by also shaping the expectation.
"""

from __future__ import annotations

import math
from fractions import Fraction

# i_t(Q_d) for d = 0..5.  The totals 2, 3, 7, 35, 743, 254475 are OEIS
# A027624; tests/test_perfbench.py re-derives every entry with a
# transfer-matrix count over pairs of independent sets of Q_(d-1).
HYPERCUBE_SEQUENCES = {
    0: (1, 1),
    1: (1, 2),
    2: (1, 4, 2),
    3: (1, 8, 16, 8, 2),
    4: (1, 16, 88, 208, 228, 128, 56, 16, 2),
    5: (1, 32, 416, 2880, 11760, 29856, 48960, 54304, 44240, 29920, 17952,
        9088, 3672, 1120, 240, 32, 2),
}
HYPERCUBE_TOTALS = {0: 2, 1: 3, 2: 7, 3: 35, 4: 743, 5: 254475}

# The 49-vertex claw composite ("aems").
AEMS_SEQUENCE = (1, 49, 48, 64)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def knn_sequence(a: int, b: int) -> tuple[int, ...]:
    """K_{a,b}: a nonempty independent set lies inside one side."""
    return (1,) + tuple(math.comb(a, t) + math.comb(b, t)
                        for t in range(1, max(a, b) + 1))


def crown_sequence(d: int) -> tuple[int, ...]:
    """K_{d,d} minus a perfect matching: one-sided sets plus the d matched
    pairs {i, d + i}."""
    return (1,) + tuple(2 * math.comb(d, t) + (d if t == 2 else 0)
                        for t in range(1, d + 1))


def path_sequence(n: int) -> tuple[int, ...]:
    """P_n: i_t = C(n - t + 1, t); the total is the Fibonacci F_(n+2)."""
    return tuple(math.comb(n - t + 1, t) for t in range((n + 1) // 2 + 1))


def cycle_sequence(n: int) -> tuple[int, ...]:
    """C_n: i_t = n/(n - t) C(n - t, t); the total is the Lucas L_n."""
    return tuple(n * math.comb(n - t, t) // (n - t) for t in range(n // 2 + 1))


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def knn_union_sequence(k: int, d: int) -> tuple[int, ...]:
    """k disjoint copies of K_{d,d}: the independence polynomial is the
    k-th power of that of K_{d,d}."""
    out: tuple[int, ...] = (1,)
    for _ in range(k):
        out = poly_mul(out, knn_sequence(d, d))
    return out


def circulant_edges(n: int, offsets) -> list[tuple[int, int]]:
    return sorted({(min(i, (i + o) % n), max(i, (i + o) % n))
                   for i in range(n) for o in offsets})


# ---------------------------------------------------------------------------
# Formulas that hold for every graph
# ---------------------------------------------------------------------------

def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def low_order_counts(n: int, edges) -> tuple[int, int, int, int]:
    """(i_0, i_1, i_2, i_3) by inclusion-exclusion over the edges:
    i_2 = C(n,2) - m and
    i_3 = C(n,3) - m(n-2) + sum_v C(deg v, 2) - #triangles."""
    m = len(edges)
    wedges = sum(math.comb(row.bit_count(), 2) for row in adjacency(n, edges))
    return (1, n, math.comb(n, 2) - m,
            math.comb(n, 3) - m * (n - 2) + wedges - count_triangles(n, edges))


def count_triangles(n: int, edges) -> int:
    adj = adjacency(n, edges)
    return sum((adj[u] & adj[v]).bit_count() for u, v in edges) // 3


def enumerate_sequence(n: int, edges) -> tuple[int, ...]:
    """Counts by size from a depth-first walk over all independent sets in
    increasing vertex order; cost is linear in their number."""
    adj = adjacency(n, edges)
    counts = [0] * (n + 1)

    def walk(start: int, blocked: int, size: int) -> None:
        counts[size] += 1
        for v in range(start, n):
            if not blocked >> v & 1:
                walk(v + 1, blocked | adj[v] | 1 << v, size + 1)

    walk(0, 0, 0)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def polynomial_value(seq, lam: Fraction) -> Fraction:
    return sum((c * lam ** t for t, c in enumerate(seq)), Fraction(0))


# ---------------------------------------------------------------------------
# Shape verdicts, by the definitions and an all-pairs scan
# ---------------------------------------------------------------------------

def first_violation(seq, increasing: bool, lo: int, hi: int, s: int):
    """Lexicographically first pair i < j in [lo, hi] with j - i >= s that
    breaks s-step monotonicity, or None."""
    for i in range(lo, hi + 1):
        for j in range(i + s, hi + 1):
            if (seq[i] > seq[j]) if increasing else (seq[i] < seq[j]):
                return [i, j]
    return None


def unimodal_witness(seq):
    k = seq.index(max(seq))
    return first_violation(seq, True, 0, k, 1) or \
        first_violation(seq, False, k, len(seq) - 1, 1)


def final_third_witness(seq):
    alpha = len(seq) - 1
    if alpha <= 0:
        return None
    start = max(0, -(-(2 * alpha - 1) // 3))
    return first_violation(seq, False, start, alpha, 1)


def bgs_verdict(seq, n: int, beta: Fraction, gamma: Fraction, s: int):
    """(holds, increasing witness, decreasing witness) for s-step increase on
    [beta n, (1-gamma) n/2] and s-step decrease on [(1+gamma) n/2, (1-beta) n],
    endpoints rounded inward."""
    lo1, hi1 = math.ceil(beta * n), math.floor((1 - gamma) * Fraction(n, 2))
    lo2, hi2 = math.ceil((1 + gamma) * Fraction(n, 2)), math.floor((1 - beta) * n)
    inc = first_violation(seq, True, lo1, hi1, s) if hi1 >= lo1 else None
    dec = first_violation(seq, False, lo2, hi2, s) if hi2 >= lo2 else None
    return inc is None and dec is None, inc, dec


# ---------------------------------------------------------------------------
# Percolation stream identifiers
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_id(seed: int, trial: int) -> int:
    """First word of the documented SplitMix64 stream keyed by
    (seed, trial, counter 0)."""
    h = _splitmix64(_splitmix64(seed & _MASK64) ^ (trial & _MASK64))
    return _splitmix64(h)


# ---------------------------------------------------------------------------
# Hypercube vertex sets
# ---------------------------------------------------------------------------

def cube_structure(d: int, verts) -> dict:
    """size, nbhd, closure, small, comps and max_comp of a vertex set of Q_d,
    from the definitions: N(A) the outer neighbourhood, [A] the vertices
    whose neighbourhood lies inside N(A), 2-components linked by
    Hamming-distance-2 steps (defined for one-parity sets only)."""
    a = set(verts)
    nbrs = {v: {v ^ (1 << k) for k in range(d)} for v in range(1 << d)}
    na = set().union(*(nbrs[v] for v in a)) - a if a else set()
    closure = [v for v in range(1 << d) if nbrs[v] <= na]
    out = {"size": len(a), "nbhd": len(na), "closure": len(closure),
           "small": len(closure) <= 1 << (d - 2), "comps": None,
           "max_comp": None}
    if len({bin(v).count("1") % 2 for v in a}) <= 1:
        left, sizes = set(a), []
        while left:
            stack, seen = [left.pop()], 1
            while stack:
                v = stack.pop()
                linked = {w for w in left if bin(v ^ w).count("1") == 2}
                left -= linked
                stack.extend(linked)
                seen += len(linked)
            sizes.append(seen)
        out["comps"], out["max_comp"] = len(sizes), max(sizes, default=0)
    return out
