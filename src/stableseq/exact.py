"""Exact computation of independent-set counts by size.

count_by_size is the counting engine.  It branches on a maximum-degree
vertex v using seq(G) = seq(G - v) + x * seq(G - N[v]), splits each
remaining vertex set into connected components whose sequences multiply,
and memoises the sequence of every component of maximum degree above 2
that is not a star by its vertex mask; such a component is branched on
unless its side sum (below) closes it.  One bitset sweep of
a vertex set (_split) gives its components that have an edge, together with
each one's branch vertex, maximum degree and degree sum, and the number of
its isolated vertices, so every set is walked once.  An isolated vertex is
never a component: it is counted where the sweep reads its empty row, and
the s isolated vertices of a set contribute one binomial row (1 + x)**s.
Stars and components of maximum degree at most 2 are closed where their
sequences are multiplied, never pushed or memoised: a star K_(1,s), a
component whose degree sum is twice its maximum degree s, as the row of its
leaves plus the centre alone, (1 + x)**s + x; a path by its own closed
form; a cycle by the branch rule applied once to two paths.  These
sequences and the binomial rows depend only on size and kind, so they are
cached by those.

Each input component that is not a star, path or cycle is 2-coloured
once, by the bitset BFS layering that graphs.bipartition also uses; a
component with an odd cycle gets no colouring.  A coloured component, and
each component c inside it, has the classes c & east and c & ~east.  When
the smaller class S has at most SIDE_CLOSE vertices, c is closed by the
decomposition of its independent sets into a subset A of S and a subset
of the other class O that avoids N(A):
P(c) = sum over A of S of x**|A| (1 + x)**(|O| - |N(A)|), 2**|S| terms,
grouped by |N(A)| so that the work is linear in |O|.  A complete
bipartite c closes at any size, as (1 + x)**|S| + (1 + x)**|O| - 1.  Such
a component is pushed and memoised like a branched one, and closed by its
side sum when it is taken from the stack, so a component that recurs is
summed once and every sum is charged to the budget.

Inside one connected component C of the input, every sequence is packed
into one integer by Kronecker substitution: P(H) = sum_t i_t(H) * 2**(w*t)
with a slot width of w = 8 * ceil(|C| / 8) bits.  The branch rule becomes
P(c) = P(c - v) + (P(c - N[v]) << w), and a union of components becomes
the product of their packed integers, so one big-integer multiply does a
whole convolution.  No slot ever carries into the next: every polynomial
packed while counting C (a memo entry, a closed form, a partial product
or a branch sum) is that of an induced subgraph H of C, whose
coefficients are i_t(H) <= C(|H|, t) < 2**|C| <= 2**w (for |H| = 0 the
one coefficient is 1 < 2**w).  The sequences of the components of the
input are unpacked once each and multiplied as coefficient lists, so each
component keeps a width fitted to its own size.  Equal top-level sequences
are grouped, and a group of many copies is raised to its multiplicity by
J. C. P. Miller's power recurrence before the lists are multiplied, so a
graph of many small equal components costs no quadratic chain of
convolutions.

side_profile with sequence_from_profile is an independent oracle for
bipartite graphs, which the tests and the verify suite compare the engine
against.  Every independent set is a subset A of one class plus an
arbitrary subset of the other class avoiding N(A), so
i_t(G) = sum over A of C(|O| - |N(A)|, t - |A|), grouped by the joint
profile (|A|, |N(A)|).

All counts are arbitrary-precision integers; this module contains no
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .graphs import Graph, GraphError, _bits_of, _layers, bipartition

# Largest class the side-profile oracle scans: 2**28 subsets.
SIDE_BACKEND_CAP = 28

# Work budget of one count_by_size call, in 64-bit words of memo entries.
# An entry is one packed integer of b bits and counts 1 + b // 64 words, its
# real size.  For components of at most 64 vertices that is never more than
# the L * (1 + B // 64) words a list of L coefficients summing to a B-bit
# total was charged before the entries were packed.  Side sums are memo
# entries and charged as such.  The closed forms of stars, paths and cycles
# are not charged: a branch node's children are disjoint induced subgraphs,
# so the forms one node needs take at most about four times the words of
# its own entry.  Q_6 takes 629466 words in 59245 entries, 28392 of them
# side sums; Q_7 stops at the budget after 57650 branch nodes (timings in
# README, "Practical limits").
MEMO_WORD_BUDGET = 1 << 21

# Fewest equal top-level components raised by the power recurrence; fewer
# are multiplied one by one.  The recurrence's coefficients are full-size
# from the start: for two paths on 1500 vertices it takes 3.3 s against
# 0.55 s for one multiplication, and it first wins near m = 5 to 7 (paths on
# 60 and 600 vertices, Q_4).  At 5000 edges it takes milliseconds where
# repeated multiplication takes 20 s.
_POWER_FROM = 6

# Largest smaller colour class of a component closed by its side sum of
# 2**SIDE_CLOSE terms rather than branched on.  Over the graphs that one
# pass of each bench workload counts, 5 to 7 were fastest; 2 and 3 were
# slower than branching, and 10 slower on percolate.
SIDE_CLOSE = 6


class CountBudgetError(GraphError):
    """count_by_size stopped at its work budget; carries the work done."""

    def __init__(self, branch_nodes: int, memo_entries: int, memo_words: int):
        super().__init__(
            f"counting budget of {MEMO_WORD_BUDGET} memo words exceeded after "
            f"{branch_nodes} branch nodes and {memo_entries} memo entries "
            f"({memo_words} words)")
        self.branch_nodes = branch_nodes
        self.memo_entries = memo_entries
        self.memo_words = memo_words


@dataclass(frozen=True)
class IndSetSequence:
    """Counts of independent sets by size, index 0 .. alpha."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or self.counts[0] != 1:
            raise ValueError("a count sequence starts with i_0 = 1")
        if len(self.counts) > 1 and self.counts[-1] <= 0:
            raise ValueError("trailing count must be positive")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")

    @property
    def alpha(self) -> int:
        return len(self.counts) - 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, t: int) -> int:
        return self.counts[t]

    def __len__(self) -> int:
        return len(self.counts)


def polynomial_eval(seq: IndSetSequence, lam) -> Fraction:
    """Exact value of sum_t i_t * lam**t at rational lam = p / q: the
    integer sum_t i_t * p**t * q**(T - t), T = alpha, by Horner's rule from
    the top term, over q**T."""
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    acc = seq.counts[-1]
    q_power = 1
    for c in reversed(seq.counts[:-1]):
        q_power *= q
        acc = acc * p + c * q_power
    return Fraction(acc, q_power)


@dataclass(frozen=True)
class SideProfile:
    """Joint distribution of (|A|, |N(A)|) over all subsets A of classE."""

    table: dict[tuple[int, int], int]
    class_e_size: int
    class_o_size: int


def _profile_scan(nbrs: list[list[int]], o_size: int
                  ) -> dict[tuple[int, int], int]:
    """Profile of all subsets of classE, given each classE vertex's
    neighbours as classO positions.  Walks the subsets in Gray-code order,
    maintaining a coverage counter per classO vertex so each step costs
    O(degree)."""
    cover = [0] * o_size
    size = 0
    covered = 0
    table: dict[tuple[int, int], int] = {(0, 0): 1}
    table_get = table.get
    for i in range(1, 1 << len(nbrs)):
        flip = (i & -i).bit_length() - 1
        if (i ^ (i >> 1)) >> flip & 1:
            size += 1
            for w in nbrs[flip]:
                if cover[w] == 0:
                    covered += 1
                cover[w] += 1
        else:
            size -= 1
            for w in nbrs[flip]:
                cover[w] -= 1
                if cover[w] == 0:
                    covered -= 1
        key = (size, covered)
        table[key] = table_get(key, 0) + 1
    return table


def side_profile(g: Graph) -> SideProfile:
    """Exact (|A|, |N(A)|) profile over all 2**|classE| subsets of classE,
    for the classes that bipartition(g) gives."""
    b = bipartition(g)
    m = len(b.class_e)
    if m > SIDE_BACKEND_CAP:
        raise GraphError(f"|classE| = {m} exceeds cap {SIDE_BACKEND_CAP}")
    o_index = {v: i for i, v in enumerate(b.class_o)}
    nbrs = [[o_index[w] for w in _bits_of(g.adj[v])] for v in b.class_e]
    o_size = len(b.class_o)
    table = _profile_scan(nbrs, o_size)
    return SideProfile(table=table, class_e_size=m, class_o_size=o_size)


def _binom(n: int, k: int) -> int:
    """C(n, k) with the usual convention: 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _binom_sum(table: dict[tuple[int, int], int], m: int, t: int) -> int:
    """sum over the cells (a, g) -> c of table of c * C(m - g, t - a)."""
    return sum(c * _binom(m - g, t - a) for (a, g), c in table.items())


def sequence_from_profile(prof: SideProfile) -> IndSetSequence:
    """i_t = sum over profile cells of count * C(|O| - m, t - a)."""
    alpha_cap = prof.class_e_size + prof.class_o_size
    counts = [_binom_sum(prof.table, prof.class_o_size, t)
              for t in range(alpha_cap + 1)]
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return IndSetSequence(tuple(counts))


def _split(adj, mask: int) -> tuple[list[tuple[int, int, int, int]], int]:
    """The connected components of the subgraph on mask that have an edge,
    in order of their lowest vertex, each as (component, v, deg(v), degree
    sum), where v is the component's lowest-indexed vertex of maximum
    degree, and the number of isolated vertices of mask.  One bitset BFS:
    at each vertex, adj[v] & mask is both its reach and its degree, so a
    vertex whose first read is 0 is counted and dropped at once, with no
    frontier and no tuple.  adj[v] is the neighbour mask of v, read only
    at the vertices of mask."""
    out = []
    singles = 0
    while mask:
        low = mask & -mask
        best_v = low.bit_length() - 1
        frontier = adj[best_v] & mask
        if not frontier:
            singles += 1
            mask ^= low
            continue
        best_deg = deg_sum = frontier.bit_count()
        comp = low | frontier
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                row = adj[v] & mask
                deg = row.bit_count()
                deg_sum += deg
                if deg > best_deg or deg == best_deg and v < best_v:
                    best_v, best_deg = v, deg
                reach |= row
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        out.append((comp, best_v, best_deg, deg_sum))
        mask ^= comp
    return out, singles


def _greedy_independent_size(adj, mask: int) -> int:
    """Size of the independent set of mask that takes each vertex in
    increasing order unless a neighbour was taken: a lower bound on the
    independence number."""
    size = 0
    while mask:
        low = mask & -mask
        mask &= ~(adj[low.bit_length() - 1] | low)
        size += 1
    return size


def _path_sequence(k: int) -> list[int]:
    """i_t of the path on k vertices, C(k + 1 - t, t), each term from the
    one before by the exact ratio of consecutive terms."""
    seq = [1]
    for t in range((k + 1) // 2):
        seq.append(seq[-1] * (k + 1 - 2 * t) * (k - 2 * t)
                   // ((t + 1) * (k + 1 - t)))
    return seq


def _binomial_row(s: int) -> list[int]:
    """C(s, t) for t = 0 .. s, the sequence of s single vertices, each term
    from the one before by the exact ratio."""
    row = [1]
    for t in range(s):
        row.append(row[-1] * (s - t) // (t + 1))
    return row


def _pack(seq: list[int], width: int) -> int:
    """sum_t seq[t] * 2**(8 * width * t), for 0 <= seq[t] < 2**(8 * width).
    Goes through bytes: shifting each slot into place is quadratic."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little")
                                    for c in seq]), "little")


def _unpack(packed: int, width: int) -> list[int]:
    """Inverse of _pack for a sequence whose last term is nonzero."""
    slots = -(-packed.bit_length() // (8 * width))
    data = packed.to_bytes(slots * width, "little")
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _power(a: tuple[int, ...], m: int) -> list[int]:
    """Coefficients of a(x)**m for a[0] = 1, by J. C. P. Miller's recurrence
    b_k = (1/k) * sum_{j=1..min(k, deg a)} ((m + 1) j - k) * a_j * b_(k-j),
    whose division is exact (Knuth, TAOCP vol. 2, 4.7).  It costs
    2 * m * deg(a)**2 products of full-size coefficients, so it only pays
    from m = _POWER_FROM on."""
    deg = len(a) - 1
    ja = [(m + 1) * j * c for j, c in enumerate(a)]
    b = [1]
    for k in range(1, m * deg + 1):
        top = min(k, deg)
        tail = b[k - top:k][::-1]
        b.append((sum(map(mul, ja[1:top + 1], tail))
                  - k * sum(map(mul, a[1:top + 1], tail))) // k)
    return b


def _product(factors: list[list[int]]) -> list[int]:
    """Product of the polynomials with these coefficient lists."""
    out = [1]
    for factor in factors:
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


def _closed_sequence(k: int, max_deg: int, deg_sum: int) -> list[int]:
    """i_t of a component on k vertices that is a star, a path or a cycle.
    It is a star K_(1, max_deg) when deg_sum = 2 max_deg: a connected graph
    with as many edges as its largest degree is a tree with one vertex
    joined to all others, whose sequence is (1 + x)**max_deg + x.
    Otherwise max_deg <= 2 and it is a path if it has fewer than k edges,
    else a cycle, whose branch on any vertex leaves the paths on k - 1 and
    k - 3 vertices: both terms have floor(k / 2) + 1 coefficients."""
    if deg_sum == 2 * max_deg:
        seq = _binomial_row(max_deg)
        seq[1] += 1
        return seq
    if deg_sum < 2 * k:
        return _path_sequence(k)
    return list(map(add, _path_sequence(k - 1), [0] + _path_sequence(k - 3)))


def _row(closed: dict[int, int], s: int, width: int) -> int:
    """The packed binomial row (1 + x)**s, cached in closed under -2s."""
    row = closed.get(-2 * s)
    if row is None:
        row = closed[-2 * s] = _pack(_binomial_row(s), width)
    return row


def _side_sum(adj, c: int, deg_sum: int, east: int, marks: list[int],
              closed: dict[int, int], width: int) -> int | None:
    """Packed sequence of the component c, 2-coloured by c & east and
    c & ~east, when it is closed by its side sum: its smaller class S has
    at most SIDE_CLOSE vertices, or it is complete bipartite.  None when it
    is not, and is branched on.  With O the other class, P(c) = sum over
    A of S of x**|A| (1 + x)**(|O| - |N(A)|).  The subsets A are listed
    with their covers N(A) in binary order over S, so marks[i] =
    x**(popcount i) packs x**|A| for the i-th; one list serves every side
    sum of the input component.  Grouped by g = |N(A)| into
    Q_g = sum over |N(A)| = g of x**|A|, P(c) is the sum of
    Q_g (1 + x)**(|O| - g) over the g with Q_g nonzero, at most 2**|S| of
    them.  Each product has a factor of at most |S| + 1 slots, so the work
    is linear in |O|.  When |O| < 2**SIDE_CLOSE, Horner's rule over every
    g, R_g = (1 + x) R_(g-1) + Q_g, R_(-1) = 0, takes no more steps than
    that bound, each one shift and add, and ends at R_|O| = P(c), as c is
    connected, so N(S) = O.  No slot carries, as every partial sum and
    every R_g, the sum over |N(A)| <= g of x**|A| (1 + x)**(g - |N(A)|),
    is at most P(c) term by term.  A complete bipartite c, whose every
    nonempty A covers O, takes (1 + x)**|S| + (1 + x)**|O| - 1 at any
    size."""
    side = c & east
    e = side.bit_count()
    o = c.bit_count() - e
    if deg_sum == 2 * e * o:
        return _row(closed, e, width) + _row(closed, o, width) - 1
    if e > o:
        side ^= c
        e, o = o, e
    if e > SIDE_CLOSE:
        return None
    shift = 8 * width
    covers = [0]
    while side:
        low = side & -side
        row = adj[low.bit_length() - 1] & c
        covers += [cover | row for cover in covers]
        side ^= low
    q = [0] * (o + 1)
    for cover, mark in zip(covers, marks):
        q[cover.bit_count()] += mark
    if o >= 1 << SIDE_CLOSE:
        return sum(term * _row(closed, o - g, width)
                   for g, term in enumerate(q) if term)
    r = 0
    for term in q:
        r += (r << shift) + term
    return r


def _packed_product(memo: dict[int, int], split: tuple,
                    closed: dict[int, int], width: int) -> int:
    """Packed sequence of the vertex set that _split gave split for: the
    product of the memo entries of its components of maximum degree above 2
    that are not stars, branched or closed by their side sums, of the packed
    closed forms of its stars, paths and cycles, and of the packed binomial
    row of its isolated vertices, multiplied once for all of them.  closed
    caches the packed forms, keyed by 2k for the path on k vertices, 2k + 1
    for the cycle, -2s - 1 for the star with s leaves and -2s for the row of
    s isolated vertices."""
    comps, singles = split
    out = 1
    for c, _, max_deg, deg_sum in comps:
        if deg_sum == 2 * max_deg:
            key = -2 * max_deg - 1
        elif max_deg > 2:
            out *= memo[c]
            continue
        else:
            k = c.bit_count()
            key = 2 * k + (deg_sum == 2 * k)
        packed = closed.get(key)
        if packed is None:
            packed = closed[key] = _pack(_closed_sequence(
                c.bit_count(), max_deg, deg_sum), width)
        out *= packed
    if singles:
        out *= _row(closed, singles, width)
    return out


def count_by_size(g: Graph) -> IndSetSequence:
    """Exact independent-set sequence of g.

    Each connected component of g is counted with packed sequences (see the
    module docstring) at a slot width of ceil(|C| / 8) bytes.  Each vertex
    set is swept once, by _split; a stack entry is either a split tuple to
    expand or a branch node waiting for its children.  Only components of
    maximum degree above 2 that are not stars are pushed and memoised:
    isolated vertices, stars, paths and cycles are closed where
    _packed_product multiplies them, from packed binomial rows and closed
    forms cached by size and kind for the component being counted.  A
    pushed component is closed by its side sum when _side_sum takes it
    under the colouring of its input component, found once for each input
    component that is not a star, path or cycle, and branched on
    otherwise.  A component of the input that is itself a star, path or
    cycle takes its closed form directly, and the isolated vertices of the
    input join the top-level group of 1 + x.
    The work runs on an explicit stack, so no input can exhaust Python's
    recursion limit.  A component's memo entry is stored once its side sum
    or the sequences of both branches are known, and the memo lives for one
    call.  Raises CountBudgetError when the memo would exceed
    MEMO_WORD_BUDGET, before any branching or side sum when a component's
    own entry cannot fit.  The top-level sequences are grouped by value,
    and a group of at least _POWER_FROM copies is multiplied as one power.
    """
    adj = g.adj
    memo: dict[int, int] = {}
    roots, isolated = _split(adj, (1 << g.n) - 1)
    groups: dict[tuple[int, ...], int] = {(1, 1): isolated} if isolated else {}
    branch_nodes = words = 0
    for root in roots:
        top, _, max_deg, deg_sum = root
        k = top.bit_count()
        if max_deg <= 2 or deg_sum == 2 * max_deg:
            seq = tuple(_closed_sequence(k, max_deg, deg_sum))
            groups[seq] = groups.get(seq, 0) + 1
            continue
        width = (k + 7) // 8
        shift = 8 * width
        # The root's own entry, always stored and charged, has at least
        # 1 + shift * alpha // 64 words, alpha >= the greedy set's size; it
        # can have at most 1 + shift * k // 64, so the greedy walk is taken
        # only for components of more than about 11585 vertices.
        if 1 + shift * k // 64 > MEMO_WORD_BUDGET - words:
            need = 1 + shift * _greedy_independent_size(adj, top) // 64
            if words + need > MEMO_WORD_BUDGET:
                raise CountBudgetError(branch_nodes, len(memo), words + need)
        layers, inside = _layers(adj, top & -top)
        east = None if inside else sum(layers[::2])
        marks = [] if east is None else [
            1 << shift * i.bit_count() for i in range(1 << SIDE_CLOSE)]
        closed: dict[int, int] = {}
        stack: list[tuple] = [root]
        while stack:
            item = stack.pop()
            c = item[0]
            if len(item) == 3:
                # P(c - v) + (P(c - N[v]) << w)
                packed = _packed_product(memo, item[1], closed, width) + (
                    _packed_product(memo, item[2], closed, width) << shift)
            elif c in memo:
                continue
            elif east is None or (packed := _side_sum(
                    adj, c, item[3], east, marks, closed, width)) is None:
                v = item[1]
                branch_nodes += 1
                without = _split(adj, c & ~(1 << v))
                rest = c & ~(adj[v] | 1 << v)
                with_v = _split(adj, rest) if rest else ([], 0)
                stack.append((c, without, with_v))
                for x in without[0] + with_v[0]:
                    if x[2] > 2 and x[3] != 2 * x[2] and x[0] not in memo:
                        stack.append(x)
                continue
            words += 1 + packed.bit_length() // 64
            if words > MEMO_WORD_BUDGET:
                raise CountBudgetError(branch_nodes, len(memo), words)
            memo[c] = packed
        seq = tuple(_unpack(memo[top], width))
        groups[seq] = groups.get(seq, 0) + 1
    factors: list = []
    for a, m in groups.items():
        factors += [a] * m if m < _POWER_FROM else [_power(a, m)]
    return IndSetSequence(tuple(_product(factors)))
