import random
from math import comb
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stableseq import exact, graphs
from stableseq.exact import (CountBudgetError, IndSetSequence, count_by_size,
                             polynomial_eval, sequence_from_profile,
                             side_profile)
from stableseq.graphs import GraphError, bipartition

from util import (bipartite_mask_graph, brute_sequence, brute_side_profile,
                  cli_json, components, convolve, disjoint_union,
                  fraction_polynomial_eval, grid, regular_bipartite_corpus)

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
    assert sum(prof.table.values()) == 16
    assert prof.table[(1, 3)] == 4


def test_side_profile_against_brute_force():
    for name, g, _d in regular_bipartite_corpus():
        if g.n > 14:
            continue
        b = bipartition(g)
        assert side_profile(g).table == \
            brute_side_profile(g, b.class_e, b.class_o), name


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


def test_serialization_roundtrip(capsys):
    seq = count_by_size(graphs.hypercube(4))
    data = cli_json(capsys, "count", "--graph", "qd:4")
    assert data["graph"] == "qd:4"
    assert data["total"] == "743"
    assert tuple(map(int, data["counts"])) == seq.counts


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


# Total independent-set counts of the k x k grid, k = 1 .. 8 (OEIS A006506).
GRID_TOTALS = (2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955)


@pytest.mark.parametrize("k", range(1, 9))
def test_grid_totals_match_oeis(k):
    assert count_by_size(grid(k, k)).total == GRID_TOTALS[k - 1]


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
    union = count_by_size(disjoint_union(g, h))
    assert union.counts == convolve(count_by_size(g).counts,
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
    # paths and cycles are not memoised, so Q_4 fits in 43 words; Q_5 needs
    # about 2000
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 50)
    with pytest.raises(CountBudgetError) as err:
        count_by_size(graphs.hypercube(5))
    exc = err.value
    assert isinstance(exc, GraphError)
    assert exc.branch_nodes > 0 and exc.memo_words > 50
    message = str(exc)
    assert f"{exc.branch_nodes} branch nodes" in message
    assert f"{exc.memo_entries} memo entries" in message
    # a graph within the budget is unaffected
    assert count_by_size(graphs.hypercube(2)).counts == (1, 4, 2)


def test_component_whose_own_entry_cannot_fit_is_refused_at_once(monkeypatch):
    # Q_4's root entry packs alpha = 8 slots of 16 bits: at least 3 words,
    # and up to 1 + 16 * 16 // 64 = 5, over a budget of 4
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 2)
    with pytest.raises(CountBudgetError) as err:
        count_by_size(graphs.hypercube(4))
    assert str(err.value) == ("counting budget of 2 memo words exceeded "
                              "after 0 branch nodes and 0 memo entries "
                              "(3 words)")


def _counts_or_refusal(g):
    try:
        return count_by_size(g).counts
    except CountBudgetError:
        return None


@settings(max_examples=150, deadline=None)
@given(general_graphs(max_n=14), st.integers(1, 60))
def test_refusal_before_branching_keeps_the_verdict(g, budget):
    # the greedy set is independent, so its size is at most alpha; with it
    # taken as 0 the check before branching cannot refuse a root entry that
    # branching would still store, so both runs give the same verdict
    full = (1 << g.n) - 1
    alpha = count_by_size(g).alpha
    assert exact._greedy_independent_size(g.adj, full) <= alpha
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "MEMO_WORD_BUDGET", budget)
        early = _counts_or_refusal(g)
        patch.setattr(exact, "_greedy_independent_size", lambda adj, mask: 0)
        assert _counts_or_refusal(g) == early


def test_greedy_set_of_a_hypercube_is_a_class():
    # the lowest-index greedy walk takes exactly the even vertices of Q_d
    for d in range(1, 11):
        g = graphs.hypercube(d)
        assert exact._greedy_independent_size(g.adj, (1 << g.n) - 1) == \
            1 << (d - 1)


# ---------------------------------------------------------------------------
# Packed sequences: slot widths at byte boundaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2, 8, 9])
def test_pack_roundtrip_at_full_slots(width):
    full = (1 << (8 * width)) - 1
    seq = [1, full, 0, full - 1, 0, 0, full]
    packed = exact._pack(seq, width)
    assert packed == sum(c << (8 * width * t) for t, c in enumerate(seq))
    assert exact._unpack(packed, width) == seq


@pytest.mark.parametrize("k", [7, 8, 9, 14, 15, 16, 17, 22, 63, 64, 65])
def test_star_fills_slots_at_byte_boundaries(k):
    # K_{1,k}: the centre alone, or any subset of the k leaves.  The slot is
    # 8 * ceil((k + 1) / 8) bits; at k = 14 and 22, C(k, k/2) would overflow
    # a slot of 8 * floor((k + 1) / 8) bits
    seq = count_by_size(graphs.complete_bipartite(1, k))
    assert seq.counts == (1, k + 1) + tuple(comb(k, t)
                                            for t in range(2, k + 1))


def test_union_of_components_of_different_widths():
    parts = [graphs.complete_bipartite(1, 8), graphs.cycle(9),
             graphs.complete_bipartite(3, 3), graphs.Graph(3, (0, 0, 0))]
    expected = (1,)
    for part in parts:
        expected = convolve(expected, count_by_size(part).counts)
    union = disjoint_union(*parts)
    assert count_by_size(union).counts == expected
    # the same parts interleaved by a relabelling
    perm = list(range(union.n))
    random.Random(5).shuffle(perm)
    shuffled = graphs.from_edges(union.n, [(perm[u], perm[v])
                                           for u, v in union.edges()])
    assert count_by_size(shuffled).counts == expected


@pytest.mark.parametrize("seed", range(6))
def test_wide_random_bipartite_matches_side_profile(seed):
    # more than 64 vertices, so slots wider than 8 bytes, with a small
    # class the side-profile oracle scans in full
    rng = random.Random(seed)
    a = rng.randint(10, 14)
    b = rng.randint(70, 85)
    p = rng.choice([0.2, 0.3, 0.5])
    edges = [(i, a + j) for i in range(a) for j in range(b)
             if rng.random() < p]
    g = graphs.from_edges(a + b, edges)
    assert max(c.bit_count() for c in components(g.adj, (1 << g.n) - 1)) > 64
    # isolated vertices of the large class go to class O, so the scan is
    # over at most the small class
    assert count_by_size(g).counts == \
        sequence_from_profile(side_profile(g)).counts


# ---------------------------------------------------------------------------
# One sweep per vertex set, closed forms and top-level powers
# ---------------------------------------------------------------------------

def _brute_branch_vertex(adj, comp):
    """(lowest-indexed maximum-degree vertex, its degree, degree sum) of
    the subgraph on comp, vertex by vertex in index order."""
    degs = {v: (adj[v] & comp).bit_count()
            for v in range(comp.bit_length()) if comp >> v & 1}
    top = max(degs.values())
    return min(v for v, d in degs.items() if d == top), top, sum(degs.values())


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("seed", range(8))
def test_split_matches_components_and_brute_force(p, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    # the top vertices stay isolated
    core = rng.randint(0, n)
    g = graphs.from_edges(n, [(u, v) for u in range(core)
                              for v in range(u + 1, core) if rng.random() < p])
    for mask in ((1 << n) - 1, rng.getrandbits(n)):
        split, isolated = exact._split(g.adj, mask)
        comps = components(g.adj, mask)
        # a component with an edge has at least two bits; the one-bit
        # components are only counted
        assert [c for c, _, _, _ in split] == [c for c in comps if c & c - 1]
        assert isolated == sum(1 for c in comps if not c & c - 1)
        for comp, v, deg, deg_sum in split:
            assert (v, deg, deg_sum) == _brute_branch_vertex(g.adj, comp)


@st.composite
def graphs_with_isolated_vertices(draw, max_n=14):
    # connected or not, small parts with runs of isolated vertices before,
    # between and after them
    parts = []
    n = 0
    while n < max_n:
        gap = draw(st.integers(0, min(3, max_n - n)))
        parts.append(graphs.Graph(gap, (0,) * gap))
        n += gap
        if n >= max_n or not draw(st.booleans()):
            break
        part = draw(general_graphs(max_n=min(6, max_n - n)))
        parts.append(part)
        n += part.n
    return disjoint_union(*parts)


@settings(max_examples=150, deadline=None)
@given(graphs_with_isolated_vertices(), st.integers(0, 2 ** 32))
def test_isolated_vertices_between_components_match_brute_force(g, seed):
    expected = brute_sequence(g)
    assert list(count_by_size(g).counts) == expected
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    relabelled = graphs.from_edges(g.n, [(perm[u], perm[v])
                                         for u, v in g.edges()])
    assert list(count_by_size(relabelled).counts) == expected


def test_star_among_many_isolated_vertices():
    # K_{1,3} between two runs of 2500 isolated vertices: its sequence
    # 1 + 4x + 3x^2 + x^3 times the binomial row (1 + x)**5000
    empty = graphs.Graph(2500, (0,) * 2500)
    g = disjoint_union(empty, graphs.complete_bipartite(1, 3), empty)
    star = (1, 4, 3, 1)
    # one row by C(n, k + 1) = C(n, k) (n - k) / (k + 1), not 20,000 combs
    row = [1]
    for k in range(5000):
        row.append(row[-1] * (5000 - k) // (k + 1))
    assert count_by_size(g).counts == tuple(
        sum(c * row[t - j] for j, c in enumerate(star) if 0 <= t - j <= 5000)
        for t in range(5004))


@pytest.mark.parametrize("n", list(range(3, 41)) + [150])
def test_cycle_closed_form(n):
    # i_t(C_n) = n / (n - t) * C(n - t, t)
    assert count_by_size(graphs.cycle(n)).counts == tuple(
        n * comb(n - t, t) // (n - t) for t in range(n // 2 + 1))


def test_cycle_beside_other_components():
    parts = [graphs.cycle(7), graphs.path(5), graphs.complete_bipartite(2, 3),
             graphs.Graph(2, (0, 0))]
    expected = (1,)
    for part in parts:
        expected = convolve(expected, count_by_size(part).counts)
    assert count_by_size(disjoint_union(*parts)).counts == expected


def test_perfect_matching_by_power():
    # i_t = C(2000, t) * 2**t: choose t edges, then one end of each
    matching = graphs.from_edges(4000, [(2 * i, 2 * i + 1)
                                        for i in range(2000)])
    assert count_by_size(matching).counts == tuple(
        comb(2000, t) << t for t in range(2001))


def test_repeated_components_match_convolution():
    parts = ([graphs.cycle(4)] * 40 + [graphs.complete_bipartite(1, 3)] * 25
             + [graphs.Graph(7, (0,) * 7)])
    expected = (1,)
    for part in parts:
        expected = convolve(expected, count_by_size(part).counts)
    # the copies interleaved by a relabelling
    union = disjoint_union(*parts)
    perm = list(range(union.n))
    random.Random(3).shuffle(perm)
    shuffled = graphs.from_edges(union.n, [(perm[u], perm[v])
                                           for u, v in union.edges()])
    assert count_by_size(union).counts == expected
    assert count_by_size(shuffled).counts == expected


def test_power_recurrence_only_for_many_copies(monkeypatch):
    # the recurrence costs about m * deg**2 full-size products, more than
    # multiplying a few copies one by one, or than a single copy as it is
    power = exact._power
    calls = []

    def checked_power(a, m):
        if m < exact._POWER_FROM:
            raise AssertionError(f"_power called at m = {m}")
        calls.append(m)
        return power(a, m)

    monkeypatch.setattr(exact, "_power", checked_power)
    assert count_by_size(graphs.path(3000)).total == _fibonacci(3002)
    p3 = count_by_size(graphs.path(3)).counts
    for copies in (2, exact._POWER_FROM):
        expected = (1,)
        for _ in range(copies):
            expected = convolve(expected, p3)
        union = disjoint_union(*[graphs.path(3)] * copies)
        assert count_by_size(union).counts == expected
    assert calls == [exact._POWER_FROM]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("copies", [1, exact._POWER_FROM])
def test_top_level_product_matches_convolution(seed, copies):
    # distinct paths, cycles, K_{a,b} and Q_3 side by side, with or
    # without a group of copies that is raised to a power first; the paths
    # and cycles of the input take their closed forms at the top level
    rng = random.Random(seed)
    parts = [graphs.path(k) for k in rng.sample(range(1, 40), 2)
             + rng.sample(range(256, 320), 2)]
    parts += [graphs.cycle(k) for k in rng.sample(range(3, 40), 2)
              + [rng.randint(256, 320)]]
    parts += [graphs.complete_bipartite(rng.randint(1, 6), rng.randint(1, 6)),
              graphs.hypercube(3)]
    parts += [graphs.crown(4)] * copies
    expected = (1,)
    for part in parts:
        expected = convolve(expected, count_by_size(part).counts)
    rng.shuffle(parts)
    assert count_by_size(disjoint_union(*parts)).counts == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10 ** 30), max_size=30),
       st.integers(1, 10 ** 6),
       st.one_of(st.just(Fraction(0)), st.integers(-50, 50).map(Fraction),
                 st.integers(1, 10 ** 9).map(lambda q: Fraction(1, q)),
                 st.fractions()))
def test_polynomial_eval_matches_fraction_loop(middle, top, lam):
    counts = (1, *middle, top)
    value = polynomial_eval(IndSetSequence(counts), lam)
    assert value == fraction_polynomial_eval(counts, lam)
    assert polynomial_eval(IndSetSequence((1,)), lam) == 1
