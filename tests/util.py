"""Shared test helpers: brute-force oracles, reference implementations,
the graph corpus and cli_json, which reads a verb's JSON output.

The oracles here deliberately avoid the library's incremental tricks: plain
subset scans and quadratic checks, so they stay independent of the code
paths they validate.  Nine helpers that only tests need live here rather
than in the library: the simplicity check check_simple, edge_count,
vertex_mask, the bitset of a vertex list such as a bipartition class,
disjoint_union, which places test graphs side by side,
count_upper_via_partition_log2, a second route to the entropy count
bound, components, the plain flood fill that the engine's component sweep
is checked against,
cube_two_components, the flood fill over one 2**d-bit row of
distance-2 neighbours per vertex that the hypercube's 2-components are
checked against, and percolate and default_step_rule, the percolation
experiment's sampler and step rule applied to one sample.  grid builds
the k x k grid graph, whose totals are published (OEIS A006506); it is
not a graph family of the library.  regularity_profile_by_terms,
bgs_interval_ends and edges_by_double_loop are the Fraction and pairwise
forms that the integer forms of h(G, d), the interval property's ends and
Graph.edges are checked against.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import mpmath as mp

from stableseq import graphs
from stableseq.bounds import partition_upper_log2
from stableseq.cli import main
from stableseq.cube_estimates import case_inequalities
from stableseq.exact import IndSetSequence
from stableseq.graphs import Graph, GraphError
from stableseq.numerics import log2_fraction, mpf_from
from stableseq.percolation import _sampler, _step_rule


def bits_of(mask: int):
    """The set bit positions of a bitset, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


def cli_json(capsys, *argv) -> dict:
    """The JSON that the command line prints for argv, which must exit 0."""
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def knn_sequence(n: int) -> IndSetSequence:
    """Closed form for K_{n,n}: i_0 = 1 and i_t = 2 C(n, t) for t >= 1 (an
    independent set lives inside one side; only the empty set is counted by
    both)."""
    return IndSetSequence((1,) + tuple(2 * math.comb(n, t)
                                       for t in range(1, n + 1)))


def check_simple(g: Graph) -> None:
    """Full-scan check that adjacency is symmetric and irreflexive."""
    for u in range(g.n):
        if g.adj[u] >> u & 1:
            raise GraphError(f"loop at {u}")
        for v in bits_of(g.adj[u]):
            if not (g.adj[v] >> u & 1):
                raise GraphError(f"asymmetric edge {u}->{v}")


def edge_count(g: Graph) -> int:
    """The number of edges of g."""
    return sum(row.bit_count() for row in g.adj) // 2


def vertex_mask(vertices) -> int:
    """The bitset of the given vertices."""
    return sum(1 << v for v in vertices)


def components(adj, mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph on mask, in
    order of their lowest vertex, by a plain bitset flood fill.  adj[v] is
    the neighbour mask of v; it is read only at the vertices of mask."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append(comp)
        mask &= ~comp
    return out


def cube_two_components(d: int, bits: int) -> list[int]:
    """Vertex masks of the maximal 2-linked pieces of the set bits of Q_d,
    in order of their lowest vertex: components over one row per vertex of
    its C(d, 2) distance-2 neighbours, each row a 2**d-bit mask."""
    steps = [1 << i ^ 1 << j for i in range(d) for j in range(i)]
    rows = {v: sum(1 << (v ^ step) for step in steps) for v in bits_of(bits)}
    return components(rows, bits)


def percolate(g: Graph, p, seed: int, trial: int = 0) -> Graph:
    """The sample of g at retention probability p drawn by the stream of
    (seed, trial): the experiment's sampler, built for one draw."""
    return _sampler(g, p)(seed, trial)


def default_step_rule(n: int, h: Fraction, epsilon: Fraction) -> int:
    """The experiment's step s for a sample of defect h, n = |V|/2."""
    return _step_rule(n, epsilon)(h)


def regularity_profile_by_terms(g: Graph, b, d) -> Fraction:
    """h(G, d) as the sum of its four Fraction terms,
    1/d + low/n + excess/(d n) + gap/n with 2n = |V|: low counts the
    class-E degrees below d, excess sums d(v) - d over the class-O degrees
    at least d and gap = |O| - |E|."""
    d = Fraction(d)
    n = Fraction(g.n, 2)
    degree = [row.bit_count() for row in g.adj]
    low = sum(1 for v in b.class_e if degree[v] < d)
    high = [degree[v] for v in b.class_o if degree[v] >= d]
    excess = sum(high) - len(high) * d
    gap = len(b.class_o) - len(b.class_e)
    return 1 / d + Fraction(low) / n + excess / (d * n) + Fraction(gap) / n


def bgs_interval_ends(n: int, beta, gamma) -> tuple[int, int, int, int]:
    """ceil(beta n), floor((1 - gamma) n/2), ceil((1 + gamma) n/2) and
    floor((1 - beta) n), by math.ceil and math.floor of Fractions."""
    beta, gamma = Fraction(beta), Fraction(gamma)
    half = Fraction(n, 2)
    return (math.ceil(beta * n), math.floor((1 - gamma) * half),
            math.ceil((1 + gamma) * half), math.floor((1 - beta) * n))


def edges_by_double_loop(g: Graph) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of g, testing every pair in ascending
    lexicographic order."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.adj[u] >> v & 1]


def disjoint_union(*parts: Graph) -> Graph:
    """The parts side by side, each relabelled past the ones before it."""
    adj = []
    for g in parts:
        shift = len(adj)
        adj.extend(row << shift for row in g.adj)
    return Graph(len(adj), tuple(adj))


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph; vertex r * cols + c sits at (r, c)."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return graphs.from_edges(rows * cols, edges)


def count_upper_via_partition_log2(nverts: int, d: int, t: int,
                                   lam=None) -> mp.mpf:
    """Upper bound on the size-t count routed through the partition-function
    bound: log2(P-bound(lam) / lam**t), by default at lam = 2t/(|V| - 2t),
    where it agrees with bounds.count_upper_log2 analytically."""
    if not 0 <= 2 * t <= nverts:
        raise ValueError("t outside [0, |V|/2]")
    if t == 0 or 2 * t == nverts:
        # limiting value of the optimized bound at the endpoints
        return mpf_from(Fraction(nverts, 2 * d))
    lam = Fraction(2 * t, nverts - 2 * t) if lam is None else Fraction(lam)
    if lam <= 0:
        raise ValueError("lam > 0 required")
    # the regular bound, the first of the pair, does not read the defect
    regular, _ = partition_upper_log2(nverts, d, Fraction(1, d), lam)
    return regular - t * log2_fraction(lam)


def convolve(a, b) -> tuple[int, ...]:
    """Coefficients of the product of two polynomials, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def fraction_polynomial_eval(counts, lam) -> Fraction:
    """sum_t counts[t] * lam**t, one Fraction operation per term."""
    lam = Fraction(lam)
    acc = Fraction(0)
    power = Fraction(1)
    for c in counts:
        acc += c * power
        power *= lam
    return acc


def is_independent(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if g.adj[v] & mask:
            return False
        m &= m - 1
    return True


def brute_sequence(g: Graph) -> list[int]:
    """Counts by size via a scan of all 2^n vertex subsets (n <= 20)."""
    assert g.n <= 20
    counts: dict[int, int] = {}
    for mask in range(1 << g.n):
        if is_independent(g, mask):
            k = mask.bit_count()
            counts[k] = counts.get(k, 0) + 1
    return [counts.get(t, 0) for t in range(max(counts) + 1)]


def brute_side_profile(g: Graph, class_e, class_o) -> dict:
    table: dict[tuple[int, int], int] = {}
    m = len(class_e)
    for mask in range(1 << m):
        picked = [class_e[i] for i in range(m) if mask >> i & 1]
        nb = 0
        for v in picked:
            nb |= g.adj[v]
        nb &= ~sum(1 << v for v in picked)
        key = (len(picked), nb.bit_count())
        table[key] = table.get(key, 0) + 1
    return table


def regular_bipartite_corpus() -> list[tuple[str, Graph, int]]:
    """At least 20 regular bipartite graphs with |V| <= 24."""
    out: list[tuple[str, Graph, int]] = []
    for n in range(4, 26, 2):
        out.append((f"cycle:{n}", graphs.cycle(n), 2))
    for d in range(1, 13):
        out.append((f"knn:{d},{d}", graphs.complete_bipartite(d, d), d))
    out.append(("qd:3", graphs.hypercube(3), 3))
    out.append(("qd:4", graphs.hypercube(4), 4))
    for d in range(3, 9):
        out.append((f"crown:{d}", graphs.crown(d), d - 1))
    out.append(("2*knn:2,2", disjoint_union(
        graphs.complete_bipartite(2, 2), graphs.complete_bipartite(2, 2)), 2))
    out.append(("3*knn:2,2", disjoint_union(
        *(graphs.complete_bipartite(2, 2) for _ in range(3))), 2))
    out.append(("2*knn:3,3", disjoint_union(
        graphs.complete_bipartite(3, 3), graphs.complete_bipartite(3, 3)), 3))
    out.append(("2*knn:4,4", disjoint_union(
        graphs.complete_bipartite(4, 4), graphs.complete_bipartite(4, 4)), 4))
    out.append(("cycle:4+cycle:8", disjoint_union(
        graphs.cycle(4), graphs.cycle(8)), 2))
    out.append(("circ:12,1,5", graphs.circulant_bipartite(12, [1, 5]), 4))
    out.append(("circ:16,1,3", graphs.circulant_bipartite(16, [1, 3]), 4))
    out.append(("circ:16,1,3,5", graphs.circulant_bipartite(16, [1, 3, 5]), 6))
    out.append(("circ:20,1,9", graphs.circulant_bipartite(20, [1, 9]), 4))
    out.append(("circ:24,1,5", graphs.circulant_bipartite(24, [1, 5]), 4))
    return out


def bipartite_mask_graph(a: int, b: int, mask: int) -> Graph:
    """Bipartite graph on sides of size a and b from an a*b edge bitmask."""
    edges = []
    for i in range(a):
        for j in range(b):
            if mask >> (i * b + j) & 1:
                edges.append((i, a + j))
    return graphs.from_edges(a + b, edges)


def bipartite_sample(seed: int = 1234, random_count: int = 150):
    """Deterministic sample of bipartite graphs with |V| <= 14: exhaustive
    over small side shapes plus seeded random balanced 7+7 graphs."""
    out = []
    for a, b in ((3, 3), (2, 4)):
        for mask in range(1 << (a * b)):
            out.append(bipartite_mask_graph(a, b, mask))
    rng = random.Random(seed)
    for _ in range(random_count):
        mask = rng.getrandbits(49)
        out.append(bipartite_mask_graph(7, 7, mask))
    return out


def exact_ratio(q: Fraction, digits: int = 6) -> float:
    return round(float(q), digits)


def suffix_starts_by_definition(ms) -> tuple:
    """The least i with every ms[i:] positive and the least i with ms[i:]
    also nondecreasing (None when there is none), each by re-checking every
    suffix: quadratic in len(ms)."""
    positive = monotone = None
    for i in range(len(ms)):
        if all(m > 0 for m in ms[i:]):
            positive = i
            break
    for i in range(len(ms)):
        tail = ms[i:]
        if all(m > 0 for m in tail) and \
                all(tail[j] <= tail[j + 1] for j in range(len(tail) - 1)):
            monotone = i
            break
    return positive, monotone


def case_scan_by_definition(d_max: int) -> dict:
    """cube_estimates.case_scan from the margins of case_inequalities, with
    d0 and monotone_from found by suffix_starts_by_definition."""
    verdicts = [case_inequalities(d) for d in range(2, d_max + 1)]
    out = {}
    for name in ("case2", "case3", "case4"):
        ms = [v[name]["margin"] for v in verdicts]
        d0, mono_from = (None if i is None else 2 + i
                         for i in suffix_starts_by_definition(ms))
        out[name] = {"d0": d0,
                     "fails": [2 + i for i, m in enumerate(ms) if m <= 0],
                     "monotone_from": mono_from}
    return out
