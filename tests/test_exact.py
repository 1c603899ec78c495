import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stableseq import exact, graphs
from stableseq.exact import (CountBudgetError, IndSetSequence, count_by_size,
                             polynomial_eval, sequence_from_profile,
                             side_profile)
from stableseq.graphs import GraphError, bipartition

from util import (bipartite_mask_graph, brute_sequence, brute_side_profile,
                  regular_bipartite_corpus)

Q3_SEQUENCE = (1, 8, 16, 8, 2)
Q4_SEQUENCE = (1, 16, 88, 208, 228, 128, 56, 16, 2)
Q5_SEQUENCE = (1, 32, 416, 2880, 11760, 29856, 48960, 54304, 44240, 29920,
               17952, 9088, 3672, 1120, 240, 32, 2)


def test_aems_sequence():
    seq = count_by_size(graphs.claw_composite())
    assert seq.counts == (1, 49, 48, 64)


def test_q3_against_brute_force():
    g = graphs.hypercube(3)
    assert list(count_by_size(g).counts) == brute_sequence(g) == list(Q3_SEQUENCE)


def test_q4_q5_frozen_values():
    assert count_by_size(graphs.hypercube(4)).counts == Q4_SEQUENCE
    seq5 = count_by_size(graphs.hypercube(5))
    assert seq5.counts == Q5_SEQUENCE
    assert seq5.total == 254475


@pytest.mark.parametrize("d", range(1, 9))
def test_knn_closed_form(d):
    seq = count_by_size(graphs.complete_bipartite(d, d))
    assert seq[0] == 1
    from math import comb
    for t in range(1, d + 1):
        assert seq[t] == 2 * comb(d, t)


def test_backend_equivalence_on_corpus():
    for name, g, _d in regular_bipartite_corpus():
        if g.n > 24:
            continue
        a = count_by_size(g)
        b = sequence_from_profile(side_profile(g))
        assert a.counts == b.counts, name


def test_reconstruction_matches_brute_force_small():
    for name, g, _d in regular_bipartite_corpus():
        if g.n > 16:
            continue
        assert list(count_by_size(g).counts) == brute_sequence(g), name


def test_side_profile_k11():
    g = graphs.complete_bipartite(1, 1)
    prof = side_profile(g)
    assert prof.table == {(0, 0): 1, (1, 1): 1}


def test_side_profile_c4():
    g = graphs.cycle(4)
    prof = side_profile(g)
    assert prof.table == {(0, 0): 1, (1, 2): 2, (2, 2): 1}


def test_side_profile_q3():
    prof = side_profile(graphs.hypercube(3))
    assert prof.total() == 16
    assert prof.table[(1, 3)] == 4


def test_side_profile_against_brute_force():
    for name, g, _d in regular_bipartite_corpus():
        if g.n > 14:
            continue
        b = bipartition(g)
        assert side_profile(g, b).table == \
            brute_side_profile(g, b.class_e, b.class_o), name


def test_side_profile_rejects_wrong_bipartition():
    from stableseq.graphs import Bipartition
    g = graphs.cycle(4)
    with pytest.raises(GraphError):
        side_profile(g, Bipartition(class_e=(0,), class_o=(1, 2)))
    with pytest.raises(GraphError):
        side_profile(g, Bipartition(class_e=(0, 1), class_o=(2, 3)))
    good = Bipartition(class_e=(0, 2), class_o=(1, 3))
    assert side_profile(g, good).table == {(0, 0): 1, (1, 2): 2, (2, 2): 1}


def test_polynomial_eval():
    aems = count_by_size(graphs.claw_composite())
    assert polynomial_eval(aems, 1) == 162
    assert polynomial_eval(aems, 0) == 1
    k22 = count_by_size(graphs.complete_bipartite(2, 2))
    assert polynomial_eval(k22, 2) == 17  # 2(1+2)^2 - 1
    assert polynomial_eval(k22, Fraction(1, 3)) == \
        2 * Fraction(4, 3) ** 2 - 1


def test_alpha_is_half_order_for_regular_bipartite():
    for name, g, _d in regular_bipartite_corpus():
        seq = count_by_size(g)
        assert seq.alpha == g.n // 2, name


@pytest.mark.parametrize("d", range(2, 6))
def test_two_maximum_sets_in_hypercubes(d):
    seq = count_by_size(graphs.hypercube(d))
    assert seq[1 << (d - 1)] == 2


def test_sequence_validation():
    with pytest.raises(ValueError):
        IndSetSequence((2, 3))
    with pytest.raises(ValueError):
        IndSetSequence((1, 5, 0))
    with pytest.raises(ValueError):
        IndSetSequence((1, -1, 2))


def test_serialization_roundtrip():
    seq = count_by_size(graphs.hypercube(4))
    data = json.loads(json.dumps(seq.to_json_dict("qd:4")))
    assert data["graph"] == "qd:4"
    assert data["total"] == "743"
    again = IndSetSequence.from_json_dict(data)
    assert again.counts == seq.counts


def test_backend_forcing_errors():
    # the side-profile oracle keeps its own cap
    with pytest.raises(GraphError):
        side_profile(graphs.complete_bipartite(29, 29))


def test_degenerate_graphs():
    empty = graphs.Graph(0, ())
    assert count_by_size(empty).counts == (1,)
    single = graphs.path(1)
    assert count_by_size(single).counts == (1, 1)
    assert sequence_from_profile(side_profile(single)).counts == (1, 1)
    no_edges = graphs.Graph(3, (0, 0, 0))
    assert count_by_size(no_edges).counts == (1, 3, 3, 1)


def test_vertex_count_coefficient():
    for name, g, _d in regular_bipartite_corpus():
        seq = count_by_size(g)
        assert seq[1] == g.n, name


# ---------------------------------------------------------------------------
# Ground truth that does not come from the engine
# ---------------------------------------------------------------------------

# Total independent-set counts of Q_0 .. Q_6 (OEIS A027624).
HYPERCUBE_TOTALS = (2, 3, 7, 35, 743, 254475, 19768832143)


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("d", range(6))
def test_hypercube_totals_match_oeis(d):
    assert count_by_size(graphs.hypercube(d)).total == HYPERCUBE_TOTALS[d]


def test_q6_published_values():
    seq = count_by_size(graphs.hypercube(6))
    assert seq.total == HYPERCUBE_TOTALS[6]
    assert (seq[1], seq[2], seq.alpha, seq[32]) == (64, 1824, 32, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 64, 150, 299, 300])
def test_path_totals_are_fibonacci(n):
    seq = count_by_size(graphs.path(n))
    assert seq.total == _fibonacci(n + 2)
    assert seq.alpha == (n + 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 17, 64, 150, 299, 300])
def test_cycle_totals_are_lucas(n):
    seq = count_by_size(graphs.cycle(n))
    assert seq.total == _fibonacci(n - 1) + _fibonacci(n + 1)
    assert seq.alpha == n // 2


def _product_of(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def general_graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return graphs.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def bipartite_graphs(draw):
    a = draw(st.integers(1, 9))
    b = draw(st.integers(0, 9))
    mask = draw(st.integers(0, (1 << (a * b)) - 1))
    return bipartite_mask_graph(a, b, mask)


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs())
def test_engine_matches_side_profile_oracle(g):
    assert count_by_size(g).counts == \
        sequence_from_profile(side_profile(g)).counts


@settings(max_examples=150, deadline=None)
@given(general_graphs())
def test_engine_matches_brute_force(g):
    assert list(count_by_size(g).counts) == brute_sequence(g)


@settings(max_examples=100, deadline=None)
@given(general_graphs(max_n=10), general_graphs(max_n=10))
def test_sequence_multiplies_over_disjoint_union(g, h):
    union = count_by_size(graphs.disjoint_union(g, h))
    assert union.counts == _product_of(count_by_size(g).counts,
                                       count_by_size(h).counts)


@settings(max_examples=100, deadline=None)
@given(general_graphs(max_n=14), st.data())
def test_sequence_is_invariant_under_relabelling(g, data):
    # the engine branches on a vertex chosen by its index, so a relabelling
    # changes every branching choice but must not change the sequence
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = graphs.from_edges(g.n, [(perm[u], perm[v])
                                         for u, v in g.edges()])
    assert count_by_size(relabelled).counts == count_by_size(g).counts


def test_budget_error_carries_counters(monkeypatch):
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 50)
    with pytest.raises(CountBudgetError) as err:
        count_by_size(graphs.hypercube(4))
    exc = err.value
    assert isinstance(exc, GraphError)
    assert exc.branch_nodes > 0 and exc.memo_words > 50
    message = str(exc)
    assert f"{exc.branch_nodes} branch nodes" in message
    assert f"{exc.memo_entries} memo entries" in message
    # a graph within the budget is unaffected
    assert count_by_size(graphs.hypercube(2)).counts == (1, 4, 2)
