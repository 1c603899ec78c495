import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stableseq import graphs
from stableseq.graphs import (GraphError, NotBipartiteError,
                              RegularityProfile, SizeCapError, bipartition,
                              regularity_profile)

from util import (check_simple, components, disjoint_union, edge_count,
                  percolate, regular_bipartite_corpus, vertex_mask)


def test_q2_is_a_4_cycle():
    g = graphs.hypercube(2)
    assert g.n == 4
    assert edge_count(g) == 4
    assert all(g.adj[v].bit_count() == 2 for v in range(4))


@pytest.mark.parametrize("d", range(1, 9))
def test_qd_regular_with_parity_classes(d):
    g = graphs.hypercube(d)
    assert g.n == 1 << d
    assert all(g.adj[v].bit_count() == d for v in range(g.n))
    b = bipartition(g)
    assert len(b.class_e) == len(b.class_o) == 1 << (d - 1)
    # vertex index equals the binary string value; classE is the even-weight
    # class under the tie-breaking convention
    assert all(v.bit_count() % 2 == 0 for v in b.class_e)


def test_generated_graphs_are_simple():
    for name, g, _ in regular_bipartite_corpus():
        check_simple(g)
    check_simple(graphs.claw_composite())
    check_simple(graphs.path(7))


def test_claw_composite_shape():
    g = graphs.claw_composite()
    assert g.n == 49
    # 3*C(4,2) + C(37,2) + 3*4*37 edges
    assert edge_count(g) == 3 * 6 + 666 + 444


def test_generator_errors():
    with pytest.raises(GraphError):
        graphs.hypercube(-1)
    with pytest.raises(SizeCapError):
        graphs.hypercube(25)
    with pytest.raises(SizeCapError):
        graphs.hypercube(16)


def test_vertex_cap_holds_for_edge_lists_and_files():
    # each row is as wide as the graph, so the cap bounds the rows' memory
    assert graphs.VERTEX_CAP == 1 << 15
    assert graphs.from_edges(graphs.VERTEX_CAP, []).n == graphs.VERTEX_CAP
    with pytest.raises(SizeCapError):
        graphs.from_edges(graphs.VERTEX_CAP + 1, [])
    with pytest.raises(SizeCapError, match="32769 exceeds cap 32768"):
        graphs.graph_from_text("32769 0\n")
    with pytest.raises(GraphError):
        graphs.cycle(2)
    with pytest.raises(GraphError):
        graphs.circulant_bipartite(10, [2])


def test_bipartition_c4():
    b = bipartition(graphs.cycle(4))
    assert len(b.class_e) == len(b.class_o) == 2


def test_bipartition_rejects_odd_cycle():
    with pytest.raises(NotBipartiteError) as err:
        bipartition(graphs.cycle(5))
    cyc = err.value.odd_cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3
    g = graphs.cycle(5)
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.adj[u] >> v & 1


def test_odd_cycle_witness_on_tangled_graphs():
    cases = [
        graphs.claw_composite(),
        graphs.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (0, 5), (5, 6), (6, 2)]),
        disjoint_union(graphs.cycle(4), graphs.cycle(7)),
    ]
    for g in cases:
        with pytest.raises(NotBipartiteError) as err:
            bipartition(g)
        cyc = err.value.odd_cycle
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.adj[u] >> v & 1


def reference_bipartition(g):
    """Per-edge breadth-first two-colouring from the lowest uncoloured
    vertex, each component's smaller colour class (its root's on a tie)
    going to class E; None when an edge joins two vertices of one colour."""
    color = [None] * g.n
    class_e, class_o = [], []
    for root in range(g.n):
        if color[root] is not None:
            continue
        color[root] = 0
        component = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in range(g.n):
                if not g.adj[u] >> v & 1:
                    continue
                if color[v] is None:
                    color[v] = 1 - color[u]
                    component.append(v)
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
        sides = sorted(([v for v in component if color[v] == c]
                        for c in (0, 1)), key=len)
        class_e += sides[0]
        class_o += sides[1]
    return tuple(sorted(class_e)), tuple(sorted(class_o))


def test_bipartition_matches_reference_bfs():
    rng = random.Random(20261018)
    for _ in range(400):
        n = rng.randint(1, 24)
        p = rng.random() * 0.4
        side = [rng.random() < 0.5 for _ in range(n)]
        mixed = rng.random() < 0.5   # edges inside a side too: odd cycles
        g = graphs.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (mixed or side[u] != side[v]) and rng.random() < p])
        expected = reference_bipartition(g)
        if expected is None:
            with pytest.raises(NotBipartiteError) as err:
                bipartition(g)
            cyc = err.value.odd_cycle
            assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc) >= 3
            assert all(g.adj[u] >> v & 1
                       for u, v in zip(cyc, cyc[1:] + cyc[:1]))
        else:
            b = bipartition(g)
            assert (b.class_e, b.class_o) == expected


def test_bipartition_no_internal_edges_on_corpus():
    for name, g, _ in regular_bipartite_corpus():
        b = bipartition(g)
        for u in b.class_e:
            assert g.adj[u] & vertex_mask(b.class_e) == 0, name
        for u in b.class_o:
            assert g.adj[u] & vertex_mask(b.class_o) == 0, name


def test_bipartition_normalization():
    b = bipartition(graphs.complete_bipartite(2, 3))
    assert len(b.class_e) == 2 and len(b.class_o) == 3


def test_bipartition_class_e_is_the_sum_of_component_minima():
    # random bipartite components beside isolated vertices: every
    # component's smaller side goes to class E, isolated vertices to class O
    rng = random.Random(4)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 5)):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            edges = [(i, a + j) for i in range(a) for j in range(b)
                     if rng.random() < 0.5]
            parts.append(graphs.from_edges(a + b, edges))
        isolated = rng.randint(1, 4)
        parts.append(graphs.Graph(isolated, (0,) * isolated))
        rng.shuffle(parts)
        g = disjoint_union(*parts)
        b = bipartition(g)
        minima = 0
        for comp in components(g.adj, (1 << g.n) - 1):
            if comp.bit_count() == 1:
                assert comp.bit_length() - 1 in b.class_o
                continue
            in_e = comp & vertex_mask(b.class_e)
            minima += min(in_e.bit_count(), (comp & ~in_e).bit_count())
        assert len(b.class_e) == minima
        assert sorted(b.class_e + b.class_o) == list(range(g.n))


def test_regularity_profile_q4():
    g = graphs.hypercube(4)
    prof = regularity_profile(g, bipartition(g), 4)
    assert prof.h_value == Fraction(1, 4)
    assert prof.low_deg_count_e == 0
    assert prof.excess_deg_sum_o == 0
    assert prof.class_gap == 0


def test_regularity_profile_regular_corpus_is_inverse_degree():
    for name, g, d in regular_bipartite_corpus():
        prof = regularity_profile(g, bipartition(g), d)
        assert prof.h_value == Fraction(1, d), name


def test_regularity_profile_k23():
    # classes normalized so E is the two degree-3 vertices; with d = 2 the
    # only correction is the class gap: 1/2 + 1/(5/2) = 9/10
    g = graphs.complete_bipartite(2, 3)
    prof = regularity_profile(g, bipartition(g), 2)
    assert prof.low_deg_count_e == 0
    assert prof.excess_deg_sum_o == 0
    assert prof.class_gap == 1
    assert prof.half_order == Fraction(5, 2)
    assert prof.h_value == Fraction(9, 10)


def test_regularity_profile_star():
    g = graphs.complete_bipartite(1, 3)
    prof = regularity_profile(g, bipartition(g), 1)
    assert prof.class_gap == 2
    assert prof.h_value == 2


def test_regularity_profile_identity_reconstruction():
    # the reported total always equals the four documented summands
    for name, g, d in regular_bipartite_corpus()[:8]:
        for dd in (Fraction(1), Fraction(d), Fraction(d, 2), Fraction(2 * d, 3)):
            prof = regularity_profile(g, bipartition(g), dd)
            n = prof.half_order
            assert prof.h_value == (1 / dd + Fraction(prof.low_deg_count_e) / n
                                    + prof.excess_deg_sum_o / (dd * n)
                                    + Fraction(prof.class_gap) / n), (name, dd)


def _profile_by_fractions(g, b, d):
    """h(G, d) and its summands, one Fraction per vertex."""
    n = Fraction(g.n, 2)
    low = sum(1 for v in b.class_e if g.adj[v].bit_count() < d)
    excess = sum((Fraction(g.adj[v].bit_count()) - d for v in b.class_o
                  if g.adj[v].bit_count() >= d), start=Fraction(0))
    gap = len(b.class_o) - len(b.class_e)
    h = 1 / d + Fraction(low) / n + excess / (d * n) + Fraction(gap) / n
    return RegularityProfile(d=d, h_value=h, low_deg_count_e=low,
                             excess_deg_sum_o=excess, class_gap=gap,
                             half_order=n)


@pytest.mark.parametrize("base", ["knn:7,7", "knn:12,12", "qd:4"])
def test_regularity_profile_matches_per_vertex_fractions(base):
    g = graphs.parse_graph_spec(base)
    frame = bipartition(g)
    d = g.adj[0].bit_count()
    for seed in range(3):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            sample = percolate(g, p, seed)
            for dd in (d * p, Fraction(d), Fraction(d * 2, 3), Fraction(1)):
                prof = regularity_profile(sample, frame, dd)
                assert prof == _profile_by_fractions(sample, frame, dd), \
                    (base, seed, p, dd)
                assert type(prof.excess_deg_sum_o) is Fraction


def test_regularity_profile_rejects_nonpositive_degree():
    g = graphs.cycle(4)
    with pytest.raises(GraphError):
        regularity_profile(g, bipartition(g), 0)


def test_graph_text_roundtrip(tmp_path):
    g = graphs.crown(4)
    text = f"{g.n} {edge_count(g)}\n" + "".join(f"{u} {v}\n"
                                              for u, v in g.edges())
    again = graphs.graph_from_text(text)
    assert again.adj == g.adj
    path = tmp_path / "crown.txt"
    path.write_text(text)
    loaded = graphs.parse_graph_spec(f"file:{path}")
    assert loaded.adj == g.adj


def test_parse_graph_spec():
    assert graphs.parse_graph_spec("qd:3").n == 8
    assert graphs.parse_graph_spec("knn:2,5").n == 7
    assert edge_count(graphs.parse_graph_spec("cycle:12")) == 12
    assert edge_count(graphs.parse_graph_spec("path:5")) == 4
    assert graphs.parse_graph_spec("aems").n == 49
    assert graphs.parse_graph_spec("crown:3").adj[0].bit_count() == 2
    assert graphs.parse_graph_spec("circ:12,1,5").adj[3].bit_count() == 4
    with pytest.raises(GraphError):
        graphs.parse_graph_spec("torus:3")
    with pytest.raises(GraphError):
        graphs.parse_graph_spec("qd:notanumber")


def test_graph_file_errors_are_typed(tmp_path):
    with pytest.raises(GraphError, match="cannot read"):
        graphs.parse_graph_spec(f"file:{tmp_path / 'missing.txt'}")
    with pytest.raises(GraphError, match="cannot read"):
        graphs.parse_graph_spec(f"file:{tmp_path}")


def test_graph_from_text_rejects_duplicate_edges():
    with pytest.raises(GraphError, match="line 3: duplicate of the edge on "
                                         "line 2"):
        graphs.graph_from_text("3 3\n0 1\n1 0\n1 2\n")
    with pytest.raises(GraphError, match="line 4: duplicate"):
        graphs.graph_from_text("3 3\n0 1\n1 2\n0 1\n")


def test_graph_from_text_header_must_count_distinct_edges():
    with pytest.raises(GraphError, match="header declares 1 edges, found 2"):
        graphs.graph_from_text("3 1\n0 1\n1 2\n")
    with pytest.raises(GraphError, match="header declares 3 edges, found 2"):
        graphs.graph_from_text("3 3\n0 1\n1 2\n")


def test_graph_from_text_errors_name_the_line():
    cases = {
        "3 2\n0 1\n1 x\n": "line 3: expected 'u v'",
        "3 2\n0 1\n\n1 2 0\n": "line 4: expected 'u v'",
        "3\n": "line 1: expected 'n m'",
        "3 1\n1 1\n": "line 2: loop at 1",
        "3 1\n0 3\n": r"line 2: edge \(0,3\) out of range",
    }
    for text, message in cases.items():
        with pytest.raises(GraphError, match=message):
            graphs.graph_from_text(text)


FAULTS = ("loop", "out of range", "reversed duplicate", "wrong m",
          "over the cap", "blank line", "trailing lines")


@st.composite
def graph_texts(draw):
    """(text, faults): a plain graph text with separators of spaces and
    tabs, and a set of faults injected into it."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=3))
    if "loop" in faults:
        v = draw(st.integers(0, n - 1))
        edges.insert(draw(st.integers(0, len(edges))), (v, v))
    if "out of range" in faults:
        edges.insert(draw(st.integers(0, len(edges))),
                     (draw(st.integers(0, n - 1)), n + draw(st.integers(0, 3))))
    if "reversed duplicate" in faults and edges:
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (v, u))
    # the header counts the edge lines, faulty ones too, unless it is wrong
    m = len(edges)
    if "wrong m" in faults:
        m += draw(st.sampled_from([-1, 1, 2]))
    if "over the cap" in faults:
        n = graphs.VERTEX_CAP + draw(st.integers(1, 3))
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    pad = st.sampled_from(["", " ", "\t"])
    lines = [f"{draw(pad)}{a}{draw(sep)}{b}{draw(pad)}"
             for a, b in [(n, max(m, 0))] + edges]
    if "blank line" in faults:
        lines.insert(draw(st.integers(1, len(lines))), draw(pad))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    if "trailing lines" in faults:
        text += draw(st.sampled_from(["\n", "\n\n", " \n", "\n\t"]))
    return text, faults


def _read(reader, text):
    try:
        return reader(text)
    except GraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_bulk_reader_agrees_with_line_reader(case):
    text, faults = case
    got = _read(graphs.graph_from_text, text)
    assert got == _read(graphs._graph_from_lines, text)
    if not faults:
        # clean text takes the bulk path and gives the graph
        assert isinstance(got, graphs.Graph)
        assert graphs._graph_from_pairs(text.split()) == got


def test_bulk_reader_refers_odd_text_to_the_line_reader():
    # CRLF line ends, a sign, non-ASCII digits and a field past int's digit
    # limit are outside the plain form; each reads as the line reader reads
    for text in ("3 2\r\n0 1\r\n1 2\r\n", "3 1\n+0 1\n", "3 1\n0 \u0661\n",
                 "3 1\n0 1" + "0" * 5000 + "\n"):
        assert _read(graphs.graph_from_text, text) == \
            _read(graphs._graph_from_lines, text)
    assert edge_count(graphs.graph_from_text("3 2\r\n0 1\r\n1 2\r\n")) == 2
