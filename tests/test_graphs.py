import pytest
from fractions import Fraction

from stableseq import graphs
from stableseq.graphs import (GraphError, NotBipartiteError, SizeCapError,
                              bipartition, check_simple, regularity_profile)

from util import regular_bipartite_corpus


def test_q2_is_a_4_cycle():
    g = graphs.hypercube(2)
    assert g.n == 4
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


@pytest.mark.parametrize("d", range(1, 9))
def test_qd_regular_with_parity_classes(d):
    g = graphs.hypercube(d)
    assert g.n == 1 << d
    assert all(g.degree(v) == d for v in range(g.n))
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
    assert g.edge_count == 3 * 6 + 666 + 444


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
        assert g.has_edge(u, v)


def test_odd_cycle_witness_on_tangled_graphs():
    cases = [
        graphs.claw_composite(),
        graphs.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (0, 5), (5, 6), (6, 2)]),
        graphs.disjoint_union(graphs.cycle(4), graphs.cycle(7)),
    ]
    for g in cases:
        with pytest.raises(NotBipartiteError) as err:
            bipartition(g)
        cyc = err.value.odd_cycle
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(u, v)


def test_bipartition_no_internal_edges_on_corpus():
    for name, g, _ in regular_bipartite_corpus():
        b = bipartition(g)
        for u in b.class_e:
            assert g.adj[u] & b.e_mask == 0, name
        for u in b.class_o:
            assert g.adj[u] & b.o_mask == 0, name


def test_bipartition_normalization():
    b = bipartition(graphs.complete_bipartite(2, 3))
    assert len(b.class_e) == 2 and len(b.class_o) == 3


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


def test_regularity_profile_rejects_nonpositive_degree():
    g = graphs.cycle(4)
    with pytest.raises(GraphError):
        regularity_profile(g, bipartition(g), 0)


def test_graph_text_roundtrip(tmp_path):
    g = graphs.crown(4)
    text = graphs.graph_to_text(g)
    again = graphs.graph_from_text(text)
    assert again.adj == g.adj
    path = tmp_path / "crown.txt"
    path.write_text(text)
    loaded = graphs.parse_graph_spec(f"file:{path}")
    assert loaded.adj == g.adj


def test_parse_graph_spec():
    assert graphs.parse_graph_spec("qd:3").n == 8
    assert graphs.parse_graph_spec("knn:2,5").n == 7
    assert graphs.parse_graph_spec("cycle:12").edge_count == 12
    assert graphs.parse_graph_spec("path:5").edge_count == 4
    assert graphs.parse_graph_spec("aems").n == 49
    assert graphs.parse_graph_spec("crown:3").degree(0) == 2
    assert graphs.parse_graph_spec("circ:12,1,5").degree(3) == 4
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
