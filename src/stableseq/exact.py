"""Exact computation of independent-set counts by size.

count_by_size is the counting engine.  It branches on a maximum-degree
vertex v using seq(G) = seq(G - v) + x * seq(G - N[v]), splits each
remaining vertex set into connected components whose sequences multiply,
and memoises every component's sequence by its vertex mask.  Components
that are paths take their closed form.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import Bipartition, Graph, GraphError, _components, bipartition
from .numerics import binom, bits_of

# Largest class the side-profile oracle scans: 2**28 subsets.
SIDE_BACKEND_CAP = 28

# Work budget of one count_by_size call, in 64-bit words of memoised
# coefficients (a coefficient of b bits counts 1 + b // 64 words).  Q_6 takes
# about 0.92 million words in 110 thousand entries; Q_7 stops at the budget
# after 9 s at a peak RSS of about 100 MB (Python 3.11, x86-64).
MEMO_WORD_BUDGET = 1 << 21


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

    def to_json_dict(self, graph_spec: Optional[str] = None) -> dict:
        meta = {
            "alpha": self.alpha,
            "total": str(self.total),
            "counts": [str(c) for c in self.counts],
        }
        if graph_spec is not None:
            meta["graph"] = graph_spec
        return meta

    @classmethod
    def from_json_dict(cls, data: dict) -> "IndSetSequence":
        seq = cls(tuple(int(c) for c in data["counts"]))
        if "total" in data and int(data["total"]) != seq.total:
            raise ValueError("total does not match counts")
        if "alpha" in data and int(data["alpha"]) != seq.alpha:
            raise ValueError("alpha does not match counts")
        return seq


def polynomial_eval(seq: IndSetSequence, lam) -> Fraction:
    """Exact value of sum_t i_t * lam**t at rational lam."""
    lam = Fraction(lam)
    acc = Fraction(0)
    power = Fraction(1)
    for c in seq.counts:
        acc += c * power
        power *= lam
    return acc


@dataclass(frozen=True)
class SideProfile:
    """Joint distribution of (|A|, |N(A)|) over all subsets A of classE."""

    table: dict[tuple[int, int], int]
    class_e_size: int
    class_o_size: int

    def total(self) -> int:
        return sum(self.table.values())

    def to_json_dict(self) -> dict:
        return {
            "class_e_size": self.class_e_size,
            "class_o_size": self.class_o_size,
            "table": {f"{a},{m}": str(c) for (a, m), c in sorted(self.table.items())},
        }


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


def side_profile(g: Graph, b: Optional[Bipartition] = None) -> SideProfile:
    """Exact (|A|, |N(A)|) profile over all 2**|classE| subsets of classE."""
    if b is None:
        b = bipartition(g)
    else:
        full = (1 << g.n) - 1
        e_mask, o_mask = b.e_mask, b.o_mask
        if e_mask | o_mask != full or e_mask & o_mask:
            raise GraphError("bipartition does not partition the vertex set")
        if any(g.adj[v] & e_mask for v in b.class_e) or \
                any(g.adj[v] & o_mask for v in b.class_o):
            raise GraphError("bipartition has an internal edge")
    m = len(b.class_e)
    if m > SIDE_BACKEND_CAP:
        raise GraphError(f"|classE| = {m} exceeds cap {SIDE_BACKEND_CAP}")
    o_index = {v: i for i, v in enumerate(b.class_o)}
    nbrs = [[o_index[w] for w in bits_of(g.adj[v])] for v in b.class_e]
    o_size = len(b.class_o)
    table = _profile_scan(nbrs, o_size)
    return SideProfile(table=table, class_e_size=m, class_o_size=o_size)


def _binom_sum(table: dict[tuple[int, int], int], m: int, t: int) -> int:
    """sum over the cells (a, g) -> c of table of c * C(m - g, t - a)."""
    return sum(c * binom(m - g, t - a) for (a, g), c in table.items())


def sequence_from_profile(prof: SideProfile) -> IndSetSequence:
    """i_t = sum over profile cells of count * C(|O| - m, t - a)."""
    alpha_cap = prof.class_e_size + prof.class_o_size
    counts = [_binom_sum(prof.table, prof.class_o_size, t)
              for t in range(alpha_cap + 1)]
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return IndSetSequence(tuple(counts))


def _max_degree_vertex(adj: tuple[int, ...], mask: int
                       ) -> tuple[int, int, int]:
    """Lowest-indexed vertex of maximum degree in the subgraph on mask, with
    that degree and the subgraph's degree sum."""
    best_v = best_deg = -1
    deg_sum = 0
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        deg = (adj[v] & mask).bit_count()
        deg_sum += deg
        if deg > best_deg:
            best_v, best_deg = v, deg
        rest ^= low
    return best_v, best_deg, deg_sum


def _path_sequence(k: int) -> list[int]:
    """i_t of the path on k vertices, C(k + 1 - t, t), each term from the
    one before by the exact ratio of consecutive terms."""
    seq = [1]
    for t in range((k + 1) // 2):
        seq.append(seq[-1] * (k + 1 - 2 * t) * (k - 2 * t)
                   // ((t + 1) * (k + 1 - t)))
    return seq


def _product(memo: dict[int, list[int]], comps: list[int]) -> list[int]:
    """Sequence of the disjoint union of comps: the product of theirs.  The
    k single vertices among them contribute the binomial row C(k, t)."""
    singles = sum(1 for c in comps if c & (c - 1) == 0)
    out = [1]
    for t in range(singles):
        out.append(out[-1] * (singles - t) // (t + 1))
    for c in comps:
        if c & (c - 1) == 0:
            continue
        factor = memo[c]
        prod = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        out = prod
    return out


def count_by_size(g: Graph) -> IndSetSequence:
    """Exact independent-set sequence of g.

    Components that are paths take their closed form instead of branching.
    The work runs on an explicit stack, so no input can exhaust Python's
    recursion limit.  A component's memo entry is stored once the sequences
    of both branches are known; single vertices are never stored.  The memo
    lives for one call.  Raises CountBudgetError when the memo would exceed
    MEMO_WORD_BUDGET.
    """
    adj = g.adj
    memo: dict[int, list[int]] = {}
    branch_nodes = words = 0
    top = _components(adj, (1 << g.n) - 1)
    stack: list[tuple] = [(c, None, None) for c in top]
    while stack:
        c, without, with_v = stack.pop()
        if without is None:
            if c & (c - 1) == 0 or c in memo:
                continue
            v, max_deg, deg_sum = _max_degree_vertex(adj, c)
            k = c.bit_count()
            if max_deg <= 2 and deg_sum < 2 * k:
                # connected, maximum degree 2 and fewer than k edges: a path
                seq = _path_sequence(k)
            else:
                branch_nodes += 1
                without = _components(adj, c & ~(1 << v))
                with_v = _components(adj, c & ~(adj[v] | 1 << v))
                stack.append((c, without, with_v))
                stack.extend((x, None, None) for x in without + with_v)
                continue
        else:
            # seq(c - v) + x * seq(c - N[v])
            seq = _product(memo, without)
            shifted = _product(memo, with_v)
            seq.extend([0] * (len(shifted) + 1 - len(seq)))
            for t, count in enumerate(shifted, start=1):
                seq[t] += count
        # every coefficient is at most the component's total
        words += len(seq) * (1 + sum(seq).bit_length() // 64)
        if words > MEMO_WORD_BUDGET:
            raise CountBudgetError(branch_nodes, len(memo), words)
        memo[c] = seq
    return IndSetSequence(tuple(_product(memo, top)))
