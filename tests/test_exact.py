import random
import time
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
    # K_{1,k}: the centre alone, or any subset of the k leaves.  A star is
    # closed, not packed, so the packed root is K_{1,k} with one edge more,
    # between two leaves, whose subsets of leaves miss the pair.  The slot
    # is 8 * ceil((k + 1) / 8) bits; at k = 14 and 22, C(k, k/2) would
    # overflow a slot of 8 * floor((k + 1) / 8) bits
    seq = count_by_size(graphs.complete_bipartite(1, k))
    assert seq.counts == (1, k + 1) + tuple(comb(k, t)
                                            for t in range(2, k + 1))
    star = graphs.complete_bipartite(1, k)
    g = graphs.from_edges(k + 1, list(star.edges()) + [(1, 2)])
    assert count_by_size(g).counts == (1, k + 1) + tuple(
        comb(k, t) - comb(k - 2, t - 2) for t in range(2, k))


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


# ---------------------------------------------------------------------------
# Stars closed in the engine
# ---------------------------------------------------------------------------

def _star_polynomial(leaves: int) -> tuple[int, ...]:
    """(1 + x)**leaves + x, by binomial coefficients."""
    seq = [comb(leaves, t) for t in range(leaves + 1)]
    seq[1] += 1
    return tuple(seq)


def _hub_beside_star(leaves: int, pendants: int) -> graphs.Graph:
    """A hub joined to the centre of K_(1, leaves) and to pendants more
    vertices: with pendants > leaves the hub has the largest degree, so the
    engine branches on it and meets the star inside the branch."""
    hub, centre = 0, 1
    edges = [(centre, 2 + i) for i in range(leaves)]
    edges += [(hub, centre)] + [(hub, 2 + leaves + i)
                                for i in range(pendants)]
    return graphs.from_edges(2 + leaves + pendants, edges)


def _counting_splits(monkeypatch) -> list:
    """Record each vertex set that count_by_size sweeps: the root's sweep,
    then one or two for each branch node."""
    seen = []
    split = exact._split

    def counted(adj, mask):
        seen.append(mask)
        return split(adj, mask)
    monkeypatch.setattr(exact, "_split", counted)
    return seen


@pytest.mark.parametrize("k", range(4, 65))
def test_star_closed_form(k):
    # K_(1, k - 1) at the top level and inside a branch, packed at a slot of
    # ceil(|C| / 8) bytes: (1 + x)**(k - 1) + x
    star = _star_polynomial(k - 1)
    assert exact._closed_sequence(k, k - 1, 2 * (k - 1)) == list(star)
    assert count_by_size(graphs.complete_bipartite(1, k - 1)).counts == star
    # seq(G - hub) + x seq(G - N[hub]): the star beside k isolated
    # vertices, and the star's leaves alone
    rows = [tuple(comb(m, t) for t in range(m + 1)) for m in (k, k - 1)]
    expected = convolve(star, rows[0])
    with_hub = (0,) + rows[1]
    expected = tuple(a + (with_hub[t] if t < len(with_hub) else 0)
                     for t, a in enumerate(expected))
    assert count_by_size(_hub_beside_star(k - 1, k)).counts == expected


def test_union_of_stars_makes_no_branch_node(monkeypatch):
    # each star is closed where the top level groups it: one sweep of the
    # whole vertex set and no memo entry, so a budget of 0 words holds
    stars = disjoint_union(*(graphs.complete_bipartite(1, k)
                             for k in (3, 5, 5, 9, 17, 40)))
    seen = _counting_splits(monkeypatch)
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 0)
    expected = (1,)
    for k in (3, 5, 5, 9, 17, 40):
        expected = convolve(expected, _star_polynomial(k))
    assert count_by_size(stars).counts == expected
    assert seen == [(1 << stars.n) - 1]


def test_star_inside_a_branch_is_not_branched(monkeypatch):
    # the hub is the one branch node: its two sweeps leave the star with s
    # isolated vertices, and the star's s leaves alone.  Both colour classes
    # have 10 vertices, more than SIDE_CLOSE, so the root is branched
    g = _hub_beside_star(9, 9)
    assert exact.SIDE_CLOSE < 10
    seen = _counting_splits(monkeypatch)
    assert list(count_by_size(g).counts) == brute_sequence(g)
    assert len(seen) == 3


@pytest.mark.parametrize("leaves", [1, 2, 3, 4, 7, 16])
def test_star_and_rows_in_one_component_keep_their_keys(leaves):
    # a star of s leaves beside 2s isolated vertices in one sweep, then the
    # s leaves alone in the other: the star, the row of 2s and the row of s
    # are three packed forms in one cache, none read for another
    g = _hub_beside_star(leaves, 2 * leaves)
    star = _star_polynomial(leaves)
    row = lambda m: tuple(comb(m, t) for t in range(m + 1))
    without = convolve(star, row(2 * leaves))
    with_hub = (0,) + row(leaves)
    expected = tuple(a + (with_hub[t] if t < len(with_hub) else 0)
                     for t, a in enumerate(without))
    assert count_by_size(g).counts == expected
    # and through _packed_product with one cache: each form on its own, in
    # either order
    width = (g.n + 7) // 8
    comp = (1 << leaves + 1) - 1
    parts = {"star": (([(comp, 0, leaves, 2 * leaves)], 0), star),
             "row2s": (([], 2 * leaves), row(2 * leaves)),
             "rows": (([], leaves), row(leaves))}
    for order in (("star", "row2s", "rows"), ("rows", "row2s", "star")):
        closed = {}
        for name in order:
            split, seq = parts[name]
            assert exact._unpack(exact._packed_product(
                {}, split, closed, width), width) == list(seq), (order, name)


@st.composite
def star_forests(draw, max_n=16):
    """Stars and random trees side by side, with up to four edges added
    between the two classes of the forest's two-colouring and the vertices
    relabelled: stars at the top level and, where an added edge joins one
    to more, inside branching."""
    edges, n = [], 0
    while n < max_n - 1:
        size = draw(st.integers(2, min(9, max_n - n)))
        if draw(st.booleans()):
            edges += [(n, n + i) for i in range(1, size)]
        else:
            edges += [(n + i, n + draw(st.integers(0, i - 1)))
                      for i in range(1, size)]
        n += size
        if not draw(st.booleans()):
            break
    n += draw(st.integers(0, min(2, max_n - n)))
    forest = graphs.from_edges(n, edges)
    frame = bipartition(forest)
    if frame.class_e and frame.class_o:
        for _ in range(draw(st.integers(0, 4))):
            edges.append((draw(st.sampled_from(frame.class_e)),
                          draw(st.sampled_from(frame.class_o))))
    perm = draw(st.permutations(range(n)))
    return graphs.from_edges(n, sorted({tuple(sorted((perm[u], perm[v])))
                                        for u, v in edges}))


@settings(max_examples=150, deadline=None)
@given(star_forests())
def test_stars_match_side_profile_oracle(g):
    assert count_by_size(g).counts == \
        sequence_from_profile(side_profile(g)).counts


# ---------------------------------------------------------------------------
# Bipartite components closed by their side sums
# ---------------------------------------------------------------------------

def _binomial(m: int) -> tuple[int, ...]:
    return tuple(comb(m, t) for t in range(m + 1))


def _add(a, b) -> tuple[int, ...]:
    """Coefficient sum of two sequences of any lengths."""
    out = [0] * max(len(a), len(b))
    for seq in (a, b):
        for t, c in enumerate(seq):
            out[t] += c
    return tuple(out)


def _complete_bipartite_sequence(a: int, b: int) -> tuple[int, ...]:
    """(1 + x)**a + (1 + x)**b - 1: a nonempty independent set of K_(a,b)
    lies in one class."""
    return _add(_add(_binomial(a), _binomial(b)), (-1,))


_PENDANTS = 2 * exact.SIDE_CLOSE + 1


def _under_hub(g: graphs.Graph, joins) -> graphs.Graph:
    """g beside a hub joined to the vertices joins of g, to _PENDANTS
    pendant vertices and to the centre of a star with SIDE_CLOSE leaves.
    The hub is vertex g.n.  Both colour classes of the hub's component have
    more than SIDE_CLOSE vertices and it is not complete bipartite, so the
    engine branches on it when no vertex of g has more than _PENDANTS
    neighbours, and meets g's components inside the branch."""
    hub = g.n
    centre = hub + 1 + _PENDANTS
    edges = list(g.edges()) + [(v, hub) for v in joins]
    edges += [(hub, hub + 1 + i) for i in range(_PENDANTS)]
    edges += [(hub, centre)] + [(centre, centre + 1 + i)
                                for i in range(exact.SIDE_CLOSE)]
    return graphs.from_edges(centre + 1 + exact.SIDE_CLOSE, edges)


@st.composite
def side_sum_graphs(draw):
    """Up to three random bipartite blocks, the first with a smaller class
    of 0 to SIDE_CLOSE + 2 vertices, then up to two isolated vertices, all
    relabelled.  Returns the graph and the vertices of the blocks' smaller
    classes."""
    edges, smaller, n = [], [], 0
    for i in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, exact.SIDE_CLOSE + 2 if i == 0 else 2))
        b = draw(st.integers(max(a, 1), a + (2 if i == 0 else 1)))
        mask = draw(st.integers(0, (1 << (a * b)) - 1))
        edges += [(n + u, n + a + w) for u in range(a) for w in range(b)
                  if mask >> (u * b + w) & 1]
        smaller += range(n, n + a)
        n += a + b
    n += draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    g = graphs.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    return g, [perm[v] for v in smaller]


@settings(max_examples=150, deadline=None)
@given(side_sum_graphs())
def test_side_sums_match_oracles(drawn):
    # alone, where a block whose smaller class has at most SIDE_CLOSE
    # vertices closes at the top level
    g, smaller = drawn
    counts = count_by_size(g).counts
    assert counts == sequence_from_profile(side_profile(g)).counts
    if g.n <= 16:
        assert list(counts) == brute_sequence(g)
    # and under a hub joined to every smaller-class vertex, where the blocks
    # close inside the hub's branch: seq(G - hub) is g beside the pendants
    # and the star, and G - N[hub] leaves the blocks' larger classes, the
    # isolated vertices and the star's leaves alone
    without = convolve(convolve(counts, _binomial(_PENDANTS)),
                       _star_polynomial(exact.SIDE_CLOSE))
    with_hub = _binomial(g.n - len(smaller) + exact.SIDE_CLOSE)
    assert count_by_size(_under_hub(g, smaller)).counts == \
        _add(without, (0,) + with_hub)


@pytest.mark.parametrize("a", range(1, 13))
@pytest.mark.parametrize("b", range(1, 13))
def test_complete_bipartite_closed_form(a, b, monkeypatch):
    # K_(a,b) closes at the top level in one sweep, as a star, a 4-cycle or
    # its side sum at any size
    seen = _counting_splits(monkeypatch)
    g = graphs.complete_bipartite(a, b)
    assert count_by_size(g).counts == _complete_bipartite_sequence(a, b)
    assert seen == [(1 << g.n) - 1]
    # and inside the hub's branch: seq(G - hub) holds the pendants, the
    # star and K_(a,b); seq(G - N[hub]) the star's leaves and K_(a - 1, b),
    # the hub being joined to one vertex of the class of a.  Each is closed
    # without a sweep of its own: the root's sweep and the hub's two
    seen.clear()
    hubbed = _under_hub(g, [0])
    star = _star_polynomial(exact.SIDE_CLOSE)
    without = convolve(convolve(_binomial(_PENDANTS), star),
                       _complete_bipartite_sequence(a, b))
    with_hub = convolve(_binomial(exact.SIDE_CLOSE),
                        _complete_bipartite_sequence(a - 1, b))
    assert count_by_size(hubbed).counts == _add(without, (0,) + with_hub)
    assert len(seen) == 3


@pytest.mark.parametrize("seed", range(8))
def test_odd_cycle_beside_bipartite_parts(seed, monkeypatch):
    # a component with an odd cycle gets no colouring, though it holds
    # bipartite blocks and branching leaves them alone; only the bipartite
    # component beside it can close by a side sum
    closed_sets = []
    side_sum = exact._side_sum

    def recorded(adj, c, *rest):
        closed_sets.append(c)
        return side_sum(adj, c, *rest)
    monkeypatch.setattr(exact, "_side_sum", recorded)
    rng = random.Random(seed)
    odd = 2 * rng.randint(1, 2) + 1
    edges = [(i, (i + 1) % odd) for i in range(odd)]
    n = odd
    for _ in range(2):
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        edges += [(n + u, n + a + w) for u in range(a) for w in range(b)
                  if rng.random() < 0.6]
        edges.append((rng.randrange(odd), n + rng.randrange(a + b)))
        n += a + b
    a, b = 2, rng.randint(3, 4)
    edges += [(n + u, n + a + w) for u in range(a) for w in range(b)
              if rng.random() < 0.8]
    g = graphs.from_edges(n + a + b, edges)
    with pytest.raises(graphs.NotBipartiteError):
        bipartition(g)
    assert list(count_by_size(g).counts) == brute_sequence(g)
    assert all(c & ((1 << n) - 1) == 0 for c in closed_sets)


@pytest.mark.parametrize("small", [exact.SIDE_CLOSE, exact.SIDE_CLOSE + 1])
@pytest.mark.parametrize("larger_first", [False, True])
def test_side_sum_closes_up_to_side_close(small, larger_first, monkeypatch):
    # K_(s, s + 2) less one edge is connected, of maximum degree s + 2 and
    # neither a star nor complete bipartite.  Its independent sets are those
    # of K_(s, s + 2) and the pair of the missing edge's ends.  With
    # s = SIDE_CLOSE it closes at the top level in the root's one sweep;
    # with s = SIDE_CLOSE + 1 the engine branches.  The colouring's first
    # class holds vertex 0, so larger_first makes it the larger class
    edges = [(u, small + w) for u in range(small) for w in range(small + 2)
             if (u, w) != (0, 0)]
    if larger_first:
        edges = [(2 * small + 1 - u, 2 * small + 1 - v) for u, v in edges]
    g = graphs.from_edges(2 * small + 2, edges)
    seen = _counting_splits(monkeypatch)
    assert count_by_size(g).counts == _add(
        _complete_bipartite_sequence(small, small + 2), (0, 0, 1))
    if small <= exact.SIDE_CLOSE:
        assert seen == [(1 << g.n) - 1]
    else:
        assert len(seen) > 1


def _spider(k: int) -> tuple[graphs.Graph, tuple[int, ...]]:
    """A centre joined to k leaves, one of which has a pendant, and its
    sequence (1 + x)**(k - 1) (1 + 2x) + x (1 + x): without the centre the
    leaves stay alone beside one edge, with it only the pendant."""
    g = graphs.from_edges(k + 2, [(0, i) for i in range(1, k + 1)]
                          + [(1, k + 1)])
    return g, _add(convolve(_binomial(k - 1), (1, 2)), (0, 1, 1))


def _two_hubs(n: int) -> tuple[graphs.Graph, tuple[int, ...]]:
    """Two hubs over n leaves, the first joined to the first 3n/4 and the
    second to the last n/2, and its sequence (1 + x)**n + x (1 + x)**(n/4)
    + x (1 + x)**(n/2) + x**2: each set of hubs leaves the leaves it does
    not cover free."""
    g = graphs.from_edges(n + 2, [(0, 2 + i) for i in range(3 * n // 4)]
                          + [(1, 2 + i) for i in range(n // 2, n)])
    seq = _add(_binomial(n), (0,) + _binomial(n // 4))
    return g, _add(_add(seq, (0,) + _binomial(n // 2)), (0, 0, 1))


@pytest.mark.parametrize("shape", [_spider, _two_hubs])
def test_side_sum_is_linear_in_the_larger_class(shape):
    # a side sum takes one product for each distinct |N(A)|, at most
    # 2**|S| of them, so a smaller class of two vertices over 5000 closes in
    # about a tenth of a second; one step of Horner's rule for every |N(A)|
    # from 0 to |O|, each a copy of the whole packed sum, took about 10 s
    g, expected = shape(5000)
    start = time.process_time()
    counts = count_by_size(g).counts
    elapsed = time.process_time() - start
    assert counts == expected
    assert elapsed < 1.0


def test_oversized_root_is_refused_before_its_side_sum(monkeypatch):
    # a double star with 5 and 20000 leaves closes by its side sum, but its
    # entry needs over 6 million words, so it is refused before any work
    def unreachable(*args):
        raise AssertionError("side sum of an oversized root")
    monkeypatch.setattr(exact, "_side_sum", unreachable)
    g = graphs.from_edges(20007, [(0, 1)] + [(0, 2 + i) for i in range(5)]
                          + [(1, 7 + i) for i in range(20000)])
    with pytest.raises(CountBudgetError) as err:
        count_by_size(g)
    assert err.value.branch_nodes == 0 and err.value.memo_words > 6_000_000


def test_roots_closed_by_side_sums_are_charged(monkeypatch):
    # K_(2,5) less an edge packs into one word; a budget of one word takes
    # one copy and refuses the second before its sum
    part = graphs.from_edges(7, [(u, 2 + w) for u in range(2)
                                 for w in range(5) if (u, w) != (0, 0)])
    monkeypatch.setattr(exact, "MEMO_WORD_BUDGET", 1)
    assert count_by_size(part).counts == _add(
        _complete_bipartite_sequence(2, 5), (0, 0, 1))
    with pytest.raises(CountBudgetError) as err:
        count_by_size(disjoint_union(part, part))
    assert err.value.memo_words == 2


def test_recurring_side_sums_are_summed_once(monkeypatch):
    # the 2 x 12 ladder meets one of its short pieces in two branches; the
    # piece is memoised with its side sum, so every sum is taken once
    closed_sets = []
    side_sum = exact._side_sum

    def recorded(adj, c, *rest):
        closed_sets.append(c)
        return side_sum(adj, c, *rest)
    monkeypatch.setattr(exact, "_side_sum", recorded)
    n = 12
    g = graphs.from_edges(2 * n, [(i, i + 1) for i in range(n - 1)]
                          + [(n + i, n + i + 1) for i in range(n - 1)]
                          + [(i, n + i) for i in range(n)])
    assert count_by_size(g).counts == \
        sequence_from_profile(side_profile(g)).counts
    assert closed_sets and len(closed_sets) == len(set(closed_sets))


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
