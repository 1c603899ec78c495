"""Finite simple graphs as bitset adjacency rows, generator families,
two-coloring, and the almost-regularity defect h(G, d).

Vertices are dense 0-based integers; each adjacency row is a Python int used
as a bitset of width n.  Graphs and bipartitions are immutable after
construction and safe for concurrent shared reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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


def _bits_of(mask: int):
    """Iterate set bit positions of a Python-int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs u < v, ascending lexicographically."""
        for u, row in enumerate(self.adj):
            # bit i of row is now vertex u + 1 + i, a neighbour above u;
            # its lowest bit, 2^i, has bit length i + 1
            row >>= u + 1
            while row:
                low = row & -row
                yield u, u + low.bit_length()
                row ^= low


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


def bipartition(g: Graph) -> Bipartition:
    """Two-coloring via breadth-first layering.

    Each component is walked in bitset layers from its lowest vertex.  Its
    smaller colour class goes to classE, and on a tie the class of its
    lowest vertex, the even layers; an isolated vertex goes to classO.  So
    |classO| >= |classE|, and classE is as small as a two-coloring allows.
    Raises NotBipartiteError with an odd-cycle witness otherwise.
    """
    adj = g.adj
    class_e = class_o = 0
    unseen = (1 << g.n) - 1
    while unseen:
        layers, inside = _layers(adj, unseen & -unseen)
        if inside:
            raise NotBipartiteError(_odd_cycle(adj, layers, inside))
        even = sum(layers[::2])
        odd = sum(layers[1::2])
        unseen ^= even | odd
        if odd.bit_count() < even.bit_count():
            even, odd = odd, even
        class_e |= even
        class_o |= odd
    return Bipartition(class_e=tuple(_bits_of(class_e)),
                       class_o=tuple(_bits_of(class_o)))


def _layers(adj, root: int) -> tuple[list[int], int]:
    """Breadth-first layers, as vertex masks, of the component of the
    vertex whose bit is root, each found by one bitset sweep of the layer
    before.  Stops at the first layer with an edge inside it, and returns
    the layers so far and the vertices of that layer with a neighbour in
    it: 0 when the component is bipartite, whose colour classes are then
    the even and the odd layers."""
    layers = []
    seen = 0
    layer = root
    while layer:
        seen |= layer
        layers.append(layer)
        reach = 0
        frontier = layer
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        if reach & layer:
            return layers, reach & layer
        layer = reach & ~seen
    return layers, 0


def _odd_cycle(adj, layers: list[int], inside: int) -> list[int]:
    """An odd cycle through an edge inside the last BFS layer; inside is the
    set of its vertices with a neighbour in that layer.  Both ends of the
    edge walk up through their lowest-indexed parent in the layer above
    until the walks meet; the two walks and the edge form the cycle."""
    u = (inside & -inside).bit_length() - 1
    w = adj[u] & layers[-1]
    walks = [u], [(w & -w).bit_length() - 1]
    depth = len(layers) - 1
    while walks[0][-1] != walks[1][-1]:
        depth -= 1
        for walk in walks:
            up = adj[walk[-1]] & layers[depth]
            walk.append((up & -up).bit_length() - 1)
    return walks[0] + walks[1][-2::-1]


def regularity_profile(g: Graph, b: Bipartition, d) -> Fraction:
    """The almost-regularity defect h(G, d), in exact rational arithmetic:

    h(G, d) = 1/d + |{v in E : d(v) < d}| / n
            + (1/(d n)) * sum_{v in O, d(v) >= d} (d(v) - d)
            + (|O| - |E|) / n,          with 2n = |V|.

    For a d-regular balanced bipartite graph every correction term vanishes
    and h(G, d) = 1/d exactly.

    Evaluated in integers over the common denominator p |V|, with d = p/q:

    h(G, d) = (q (|V| + 2S) + 2p (low - L + gap)) / (p |V|),

    where S and L are the sum and the number of the class-O degrees at
    least d, low is the number of class-E degrees below d and
    gap = |O| - |E|.  One Fraction is built, at the end.
    """
    d = Fraction(d)
    p, q = d.numerator, d.denominator
    if p <= 0:
        raise GraphError("degree parameter d must be positive")
    if g.n == 0:
        raise GraphError("empty graph has no regularity profile")
    # an integer degree is below d exactly when it is below ceil(d)
    cut = -(-p // q)
    adj = g.adj
    low = sum(1 for v in b.class_e if adj[v].bit_count() < cut)
    high = [deg for v in b.class_o if (deg := adj[v].bit_count()) >= cut]
    gap = len(b.class_o) - len(b.class_e)
    return Fraction(q * (g.n + 2 * sum(high))
                    + 2 * p * (low - len(high) + gap), p * g.n)


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
    # compared before 2^d is built or printed: d may be huge
    if d > VERTEX_CAP.bit_length() - 1:
        raise SizeCapError(f"|V| = 2^{d} exceeds cap {VERTEX_CAP}")
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


def _int_pair(line: str, lineno: int, what: str) -> tuple[int, int]:
    fields = line.split()
    try:
        if len(fields) != 2:
            raise ValueError
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphError(f"line {lineno}: expected {what}, got "
                         f"{line.strip()!r}") from None


# Text the bulk reader takes: lines of two decimal fields, the last line
# with or without its newline.  No blank line, no "\r" and no other digits.
_PLAIN_PAIRS = re.compile(r"[ \t]*[0-9]+[ \t]+[0-9]+[ \t]*"
                          r"(?:\n[ \t]*[0-9]+[ \t]+[0-9]+[ \t]*)*\n?")


def graph_from_text(text: str) -> Graph:
    """Graph from its text form: a first line "n m", then one "u v" line per
    edge.  Blank lines are skipped; every error names the line it is on, and
    the header's m must equal the number of distinct edges.

    Plain text (_PLAIN_PAIRS) is checked in bulk; any other text, or any
    text a bulk check rejects, is read line by line, which accepts the same
    texts and gives every error."""
    if _PLAIN_PAIRS.fullmatch(text):
        g = _graph_from_pairs(text.split())
        if g is not None:
            return g
    return _graph_from_lines(text)


def _graph_from_pairs(fields: list[str]) -> Graph | None:
    """Graph from the fields of plain text, or None when a check fails:
    every field an int, n within VERTEX_CAP, 2m edge ends after the header,
    every end below n, and 2m adjacency bits.  An edge sets at most two
    bits, a loop one and a repeated edge none, so 2m bits leave no room for
    a loop or a duplicate."""
    try:
        nums = list(map(int, fields))
    except ValueError:
        # a field beyond int's digit limit
        return None
    n, m = nums[0], nums[1]
    if n > VERTEX_CAP or len(nums) != 2 * m + 2:
        return None
    ends = nums[2:]
    if ends and max(ends) >= n:
        return None
    adj = [0] * n
    for u, v in zip(ends[0::2], ends[1::2]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if sum(row.bit_count() for row in adj) != 2 * m:
        return None
    return Graph(n, tuple(adj))


def _graph_from_lines(text: str) -> Graph:
    """graph_from_text line by line, naming the line of each error."""
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
