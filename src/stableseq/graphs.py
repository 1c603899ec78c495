"""Finite simple graphs as bitset adjacency rows, generator families,
two-coloring, and the almost-regularity defect h(G, d).

Vertices are dense 0-based integers; each adjacency row is a Python int used
as a bitset of width n.  Graphs and bipartitions are immutable after
construction and safe for concurrent shared reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .numerics import bits_of, popcount

# Largest graph built, by a generator or from a file: each row is as wide as
# the graph, so the rows take n**2 / 8 bytes, 128 MB at the cap.
VERTEX_CAP = 1 << 15


class GraphError(ValueError):
    pass


class SizeCapError(GraphError):
    """A graph of more than VERTEX_CAP vertices was asked for."""


class NotBipartiteError(GraphError):
    """Raised by bipartite-only operations; carries an odd-cycle witness."""

    def __init__(self, odd_cycle: Sequence[int]):
        super().__init__(f"graph is not bipartite (odd cycle {list(odd_cycle)})")
        self.odd_cycle = tuple(odd_cycle)


@dataclass(frozen=True)
class Graph:
    """Simple loopless undirected graph on vertex set {0, ..., n-1}."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("negative vertex count")
        if len(self.adj) != self.n:
            raise GraphError("adjacency row count differs from n")
        width = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~width:
                raise GraphError(f"adjacency row {v} wider than n")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def degrees(self) -> list[int]:
        return [popcount(row) for row in self.adj]

    @property
    def edge_count(self) -> int:
        return sum(popcount(row) for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs u < v, ascending lexicographically."""
        for u in range(self.n):
            for v in bits_of(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def check_simple(g: Graph) -> None:
    """Full-scan check that adjacency is symmetric and irreflexive."""
    for u in range(g.n):
        if g.adj[u] >> u & 1:
            raise GraphError(f"loop at {u}")
        for v in bits_of(g.adj[u]):
            if not (g.adj[v] >> u & 1):
                raise GraphError(f"asymmetric edge {u}->{v}")


def _components(adj, mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph on mask, in
    order of their lowest vertex.  adj[v] is the neighbour mask of v (a
    tuple, list or dict of rows); it is read only at the vertices of mask."""
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


def from_edges(n: int, edges) -> Graph:
    """Graph on n vertices; n is capped before the (lazy) edges are read."""
    _check_cap(n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring with the normalization |classO| >= |classE|."""

    class_e: tuple[int, ...]
    class_o: tuple[int, ...]

    @property
    def e_mask(self) -> int:
        return sum(1 << v for v in self.class_e)

    @property
    def o_mask(self) -> int:
        return sum(1 << v for v in self.class_o)


def bipartition(g: Graph) -> Bipartition:
    """Two-coloring via breadth-first layering.

    Classes are normalized so that |classO| >= |classE|; when the sizes tie,
    the class containing the first BFS root of each component stays classE.
    Raises NotBipartiteError with an odd-cycle witness otherwise.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in bits_of(g.adj[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartiteError(_odd_cycle(u, v, parent))
    cls0 = tuple(v for v in range(g.n) if color[v] == 0)
    cls1 = tuple(v for v in range(g.n) if color[v] == 1)
    if len(cls1) < len(cls0):
        cls0, cls1 = cls1, cls0
    return Bipartition(class_e=cls0, class_o=cls1)


def _odd_cycle(u: int, v: int, parent: list[int]) -> list[int]:
    # Walk both endpoints of the conflicting edge up to their lowest common
    # ancestor; the two paths plus the edge form an odd cycle.
    anc_u = [u]
    while parent[anc_u[-1]] != -1:
        anc_u.append(parent[anc_u[-1]])
    pos = {x: i for i, x in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in pos:
        path_v.append(parent[path_v[-1]])
    lca = path_v[-1]
    return anc_u[:pos[lca] + 1] + path_v[-2::-1]


@dataclass(frozen=True)
class RegularityProfile:
    """The four summands of the almost-regularity defect h(G, d).

    h(G, d) = 1/d + |{v in E : d(v) < d}| / n
            + (1/(d n)) * sum_{v in O, d(v) >= d} (d(v) - d)
            + (|O| - |E|) / n,          with 2n = |V|.

    For a d-regular balanced bipartite graph every correction term vanishes
    and h(G, d) = 1/d exactly.
    """

    d: Fraction
    h_value: Fraction
    low_deg_count_e: int
    excess_deg_sum_o: Fraction
    class_gap: int
    half_order: Fraction  # n = |V|/2, kept rational for odd orders


def regularity_profile(g: Graph, b: Bipartition, d) -> RegularityProfile:
    """Evaluate h(G, d) in exact rational arithmetic."""
    d = Fraction(d)
    if d <= 0:
        raise GraphError("degree parameter d must be positive")
    n = Fraction(g.n, 2)
    if n == 0:
        raise GraphError("empty graph has no regularity profile")
    low = sum(1 for v in b.class_e if g.degree(v) < d)
    excess = sum((Fraction(g.degree(v)) - d for v in b.class_o
                  if g.degree(v) >= d), start=Fraction(0))
    gap = len(b.class_o) - len(b.class_e)
    h = Fraction(1) / d + Fraction(low) / n + excess / (d * n) + Fraction(gap) / n
    return RegularityProfile(d=d, h_value=h, low_deg_count_e=low,
                             excess_deg_sum_o=excess, class_gap=gap,
                             half_order=n)


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

def _check_cap(nverts: int) -> None:
    if nverts > VERTEX_CAP:
        raise SizeCapError(f"|V| = {nverts} exceeds cap {VERTEX_CAP}")


def _cube_row(d: int, v: int) -> int:
    """Neighbours of v in Q_d, as a bitset: v with one coordinate flipped."""
    return sum(1 << (v ^ 1 << k) for k in range(d))


def hypercube(d: int) -> Graph:
    """Q_d on {0,1}^d; vertex index i is the binary string of value i,
    adjacency flips exactly one coordinate."""
    if d < 0:
        raise GraphError("d < 0")
    _check_cap(1 << d)
    return Graph(1 << d, tuple(_cube_row(d, v) for v in range(1 << d)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A = {0..a-1}, side B = {a..a+b-1}."""
    if a < 0 or b < 0:
        raise GraphError("negative side size")
    _check_cap(a + b)
    amask = (1 << a) - 1
    bmask = ((1 << b) - 1) << a
    adj = tuple([bmask] * a + [amask] * b)
    return Graph(a + b, adj)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def claw_composite() -> Graph:
    """The 49-vertex claw composite whose independent set counts by size are
    1, 49, 48, 64: a claw with each leaf blown up to a K_4, the center blown
    up to a K_37, and every claw edge replaced by a complete join."""
    groups = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12)),
              list(range(12, 49))]
    edges = []
    for grp in groups:
        edges.extend((u, v) for i, u in enumerate(grp) for v in grp[i + 1:])
    for leaf in groups[:3]:
        edges.extend((u, v) for u in leaf for v in groups[3])
    return from_edges(49, edges)


def crown(d: int) -> Graph:
    """K_{d,d} minus a perfect matching; (d-1)-regular bipartite."""
    if d < 2:
        raise GraphError("crown needs d >= 2")
    return from_edges(2 * d, ((i, d + j) for i in range(d) for j in range(d)
                              if i != j))


def circulant_bipartite(n: int, offsets: Sequence[int]) -> Graph:
    """Circulant on Z_n with odd offsets only, hence bipartite by parity."""
    if n % 2:
        raise GraphError("bipartite circulant needs even n")
    if any(o % 2 == 0 for o in offsets):
        raise GraphError("offsets must be odd to stay bipartite")
    _check_cap(n)
    edges = {(min(i, (i + o) % n), max(i, (i + o) % n))
             for i in range(n) for o in offsets}
    return from_edges(n, sorted(edges))


def disjoint_union(*graphs: Graph) -> Graph:
    total = sum(g.n for g in graphs)
    adj = []
    shift = 0
    for g in graphs:
        adj.extend(row << shift for row in g.adj)
        shift += g.n
    return Graph(total, tuple(adj))


# ---------------------------------------------------------------------------
# Graph spec strings and the plain-text file format
# ---------------------------------------------------------------------------

def spec_family(spec: str) -> str:
    """The family name of a graph spec, as parse_graph_spec reads it."""
    return spec.partition(":")[0].strip().lower()


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a CLI spec string.

    Supported: "qd:D", "knn:A,B", "cycle:N", "path:N", "aems", "crown:D",
    "circ:N,O1,O2,...", "file:PATH".
    """
    name, arg = spec_family(spec), spec.partition(":")[2]
    try:
        if name == "qd":
            return hypercube(int(arg))
        if name == "knn":
            a, b = (int(x) for x in arg.split(","))
            return complete_bipartite(a, b)
        if name == "cycle":
            return cycle(int(arg))
        if name == "path":
            return path(int(arg))
        if name == "aems":
            return claw_composite()
        if name == "crown":
            return crown(int(arg))
        if name == "circ":
            parts = [int(x) for x in arg.split(",")]
            return circulant_bipartite(parts[0], parts[1:])
        if name == "file":
            try:
                with open(arg, "r", encoding="ascii") as fh:
                    text = fh.read()
            except OSError as exc:
                raise GraphError(f"cannot read graph file {arg!r}: "
                                 f"{exc.strerror or exc}") from exc
            return graph_from_text(text)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, GraphError):
            raise
        raise GraphError(f"malformed graph spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown graph family in spec {spec!r}")


def graph_to_text(g: Graph) -> str:
    """Plain text format: first line "n m", then one "u v" line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_pair(line: str, lineno: int, what: str) -> tuple[int, int]:
    fields = line.split()
    try:
        if len(fields) != 2:
            raise ValueError
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphError(f"line {lineno}: expected {what}, got "
                         f"{line.strip()!r}") from None


def graph_from_text(text: str) -> Graph:
    """Inverse of graph_to_text.  Blank lines are skipped; every error names
    the line it is on, and the header's m must equal the number of distinct
    edges."""
    rows = [(i, line) for i, line in enumerate(text.splitlines(), start=1)
            if line.strip()]
    if not rows:
        raise GraphError("empty graph file")
    n, m = _int_pair(rows[0][1], rows[0][0], "'n m'")
    seen: dict[tuple[int, int], int] = {}
    for lineno, line in rows[1:]:
        u, v = _int_pair(line, lineno, "'u v'")
        if u == v:
            raise GraphError(f"line {lineno}: loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate of the edge on line "
                             f"{seen[key]}")
        seen[key] = lineno
    if len(seen) != m:
        raise GraphError(f"header declares {m} edges, found {len(seen)}")
    return from_edges(n, seen)
