import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stableseq import cube, graphs
from stableseq.cube import (NotApplicableError, VertexSet, closure,
                            eq_upper_small_sets, identity_reweight_check,
                            is_small, is_two_linked, lower_bound_scattered,
                            neighborhood, scattered_count_by_size,
                            small_profile, small_set_scan, structure_stats,
                            two_components)
from stableseq.exact import count_by_size
from stableseq.numerics import binom, popcount

Q_SEQ = {d: count_by_size(graphs.hypercube(d)).counts for d in (3, 4, 5)}


def vs(d, verts):
    return VertexSet(d, sum(1 << v for v in verts))


# --- independent brute-force implementations (adjacency-matrix style) -----

def brute_nbhd(d, verts):
    out = set()
    for v in verts:
        for k in range(d):
            out.add(v ^ (1 << k))
    return out - set(verts)


def brute_closure(d, verts):
    na = brute_nbhd(d, verts)
    out = set()
    for v in range(1 << d):
        if {v ^ (1 << k) for k in range(d)} <= na:
            out.add(v)
    return out


def brute_two_components(d, verts):
    # connectivity of the induced subgraph on A union N(A), restricted to A
    region = set(verts) | brute_nbhd(d, verts)
    comp_of = {}
    for start in verts:
        if start in comp_of:
            continue
        stack = [start]
        seen = {start}
        while stack:
            u = stack.pop()
            for k in range(d):
                w = u ^ (1 << k)
                if w in region and w not in seen:
                    seen.add(w)
                    stack.append(w)
        for v in verts:
            if v in seen:
                comp_of[v] = start
    groups = {}
    for v, root in comp_of.items():
        groups.setdefault(root, set()).add(v)
    return sorted(frozenset(s) for s in groups.values())


def brute_scattered_counts(d):
    # every k-subset of the even class, checked pair by pair, for k = 0, 1,
    # ... until a size has none
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    counts = []
    for k in range(len(evens) + 1):
        c = sum(1 for s in combinations(evens, k)
                if all(popcount(u ^ v) >= 4 for u, v in combinations(s, 2)))
        if c == 0:
            break
        counts.append(c)
    return counts


# ---------------------------------------------------------------------------

def test_neighborhood_examples():
    d = 4
    a = vs(d, [0])
    na = neighborhood(d, a)
    assert na.size == d
    assert sorted(na.vertices()) == [1, 2, 4, 8]
    assert neighborhood(d, vs(d, [])).bits == 0
    a = vs(3, [0b000, 0b011])
    assert sorted(neighborhood(3, a).vertices()) == [0b001, 0b010, 0b100, 0b111]


def test_closure_examples():
    for d in (3, 4):
        for v in range(1 << d):
            assert closure(d, vs(d, [v])).vertices() == [v]
    # the whole even class closes to itself and is not small
    d = 4
    evens = [v for v in range(16) if popcount(v) % 2 == 0]
    cl = closure(d, vs(d, evens))
    assert sorted(cl.vertices()) == evens
    assert not is_small(d, vs(d, evens))
    assert closure(3, vs(3, [])).bits == 0


def test_closure_literal_for_non_independent_sets():
    # adjacent pair: N(A) misses some neighbors of each member, so the
    # literal closure drops both
    d = 3
    a = vs(d, [0b000, 0b001])
    cl = closure(d, a)
    assert 0b000 not in cl.vertices()


def test_two_components_examples():
    comps = two_components(3, vs(3, [0b000, 0b011]))
    assert len(comps) == 1 and comps[0].size == 2
    comps = two_components(4, vs(4, [0b0000, 0b1111]))
    assert len(comps) == 2 and all(c.size == 1 for c in comps)
    comps = two_components(4, vs(4, [0b0000]))
    assert len(comps) == 1 and comps[0].size == 1
    with pytest.raises(ValueError):
        two_components(3, vs(3, [0b000, 0b001]))


def test_structure_stats_sides():
    st = structure_stats(4, vs(4, [0b0000, 0b0011]))
    assert (st.size, st.nbhd, st.closure) == (2, 6, 2)
    assert st.small and st.comps == 1 and st.max_comp == 2
    assert vs(4, [0b0000]).side == cube.SIDE_EVEN
    assert vs(4, [0b0001]).side == cube.SIDE_ODD
    assert vs(4, [0b0000, 0b0001]).side == cube.SIDE_MIXED
    # the decomposition is not defined across parities
    mixed = structure_stats(4, vs(4, [0b0000, 0b0001]))
    assert mixed.comps is None and mixed.max_comp is None
    empty = structure_stats(4, vs(4, []))
    assert empty.comps == 0 and empty.max_comp == 0


def test_against_brute_force_small_sets():
    for d in (3, 4):
        evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
        for size in (1, 2, 3):
            for verts in combinations(evens, size):
                a = vs(d, verts)
                assert set(neighborhood(d, a).vertices()) == brute_nbhd(d, verts)
                assert set(closure(d, a).vertices()) == brute_closure(d, verts)
                ours = sorted(frozenset(c.vertices())
                              for c in two_components(d, a))
                assert ours == brute_two_components(d, verts)


def test_against_brute_force_random_larger_sets():
    rng = random.Random(4242)
    for d in (5, 6):
        evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
        for _ in range(100):
            size = rng.randrange(1, 9)
            verts = tuple(sorted(rng.sample(evens, size)))
            a = vs(d, verts)
            assert set(neighborhood(d, a).vertices()) == brute_nbhd(d, verts)
            assert set(closure(d, a).vertices()) == brute_closure(d, verts)
            ours = sorted(frozenset(c.vertices())
                          for c in two_components(d, a))
            assert ours == brute_two_components(d, verts)
            assert is_two_linked(d, a) == (len(ours) == 1)


def test_scattered_sets_have_full_neighborhoods():
    # cl(A) <= 1 forces |N(A)| = d |A|: no two members share a neighbor
    for d in (3, 4, 5):
        evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
        for size in (1, 2, 3):
            for verts in combinations(evens, size):
                a = vs(d, verts)
                comps = two_components(d, a)
                if max(c.size for c in comps) <= 1:
                    assert neighborhood(d, a).size == d * size, (d, verts)


def test_pairwise_common_neighbor_cap():
    for d in range(2, 7):
        for u in range(1 << d):
            for w in range(u + 1, 1 << d):
                common = brute_nbhd(d, [u]) & brute_nbhd(d, [w])
                assert len(common) in (0, 2), (d, u, w)


def test_neighborhood_lower_bound_small_sets():
    # |N(A)| >= d|A| - 2|A|(|A|-1) within one class: exhaustive over all
    # subsets of the even class up to size 5
    for d in (3, 4, 5):
        evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
        for a in range(1, 6):
            if a > len(evens):
                continue
            for verts in combinations(evens, a):
                assert len(brute_nbhd(d, verts)) >= d * a - 2 * a * (a - 1), \
                    (d, verts)


def test_two_linked_singleton_and_empty():
    assert is_two_linked(4, vs(4, [3]))
    assert not is_two_linked(4, vs(4, []))
    # mixed-parity adjacent pair is 2-linked via the explicit traversal
    assert is_two_linked(3, vs(3, [0b000, 0b001]))


def test_small_scan_totals():
    # the whole (|A|, |N(A)|, 2-linked) table matches a brute-force census
    # of the small sets; the empty set is keyed (0, 0, False)
    for d in (3, 4):
        evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
        census = {(0, 0, False): 1}
        for size in range(1, len(evens) + 1):
            for verts in combinations(evens, size):
                if len(brute_closure(d, verts)) <= (1 << (d - 2)):
                    key = (size, len(brute_nbhd(d, verts)),
                           len(brute_two_components(d, verts)) == 1)
                    census[key] = census.get(key, 0) + 1
        assert small_set_scan(d) == census, d


# small_set_scan(5), recorded from the full scan over all 2^16 subsets of
# the even class that the pruned walk replaced; the counts sum to 7493
SMALL_SCAN_D5 = {
    (0, 0, False): 1, (1, 5, True): 16, (2, 8, True): 80,
    (2, 10, False): 40, (3, 10, True): 160, (3, 11, True): 240,
    (3, 13, False): 160, (4, 11, True): 80, (4, 12, True): 580,
    (4, 13, True): 480, (4, 14, True): 480, (5, 11, True): 16,
    (5, 13, True): 1040, (5, 14, True): 1440, (6, 13, True): 160,
    (6, 14, True): 1800, (7, 14, True): 640, (8, 14, True): 80,
}


def test_small_scan_d5_pinned():
    assert small_set_scan(5) == SMALL_SCAN_D5


@st.composite
def nested_even_sets(draw):
    d = draw(st.integers(3, 5))
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    outer = draw(st.integers(0, (1 << len(evens)) - 1))
    inner = outer & draw(st.integers(0, (1 << len(evens)) - 1))

    def bits(mask):
        return sum(1 << v for i, v in enumerate(evens) if mask >> i & 1)
    return d, VertexSet(d, bits(inner)), VertexSet(d, bits(outer))


@settings(max_examples=200, deadline=None)
@given(nested_even_sets())
def test_closure_grows_with_the_set(sets):
    # the small-set walk drops every superset of a set that is not small
    d, a, b = sets
    assert closure(d, a).bits & ~closure(d, b).bits == 0


def test_small_scans_refuse_dimension_below_two():
    msg = r"dimension d = 1 outside \[2, 5\]"
    with pytest.raises(ValueError, match=msg):
        small_set_scan(1)
    with pytest.raises(ValueError, match=msg):
        small_profile(1)
    with pytest.raises(ValueError, match=msg):
        eq_upper_small_sets(1, 0)
    # in Q_2 a single even vertex closes to the whole even class
    assert small_set_scan(2) == {(0, 0, False): 1}


def test_small_scan_table_is_ordered(tmp_path):
    # keys ascend, and a cache hit reads back the miss item for item, in
    # the same order, not only as an equal mapping
    for d in (2, 3, 4, 5):
        miss = small_set_scan(d, cache_dir=str(tmp_path))
        assert list(miss) == sorted(miss), d
        hit = small_set_scan(d, cache_dir=str(tmp_path))
        assert list(hit.items()) == list(miss.items()), d


def test_small_scan_cache_roundtrip(tmp_path):
    fresh = small_set_scan(4, cache_dir=str(tmp_path))
    cached = small_set_scan(4, cache_dir=str(tmp_path))
    assert fresh == cached
    # corrupt the cache; the scan must fall back to recomputation
    for blob in tmp_path.iterdir():
        blob.write_text(blob.read_text().replace('"sha256"', '"sha255"'))
    again = small_set_scan(4, cache_dir=str(tmp_path))
    assert again == fresh


def test_failed_cache_write_keeps_earlier_file(tmp_path, monkeypatch):
    fresh = small_set_scan(3, cache_dir=str(tmp_path))
    (cache_file,) = tmp_path.iterdir()
    before = cache_file.read_text()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"d": 3, "data": [[')
        raise OSError("device full")

    monkeypatch.setattr(cube.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="device full"):
        cube._cache_store(3, "small-scan", [[[0, 0, False], 1]], str(tmp_path))
    monkeypatch.undo()
    # the earlier file is untouched, still passes its checksum, and no
    # temporary file is left behind
    assert list(tmp_path.iterdir()) == [cache_file]
    assert cache_file.read_text() == before
    assert cube._cache_load(3, "small-scan", str(tmp_path)) is not None
    assert small_set_scan(3, cache_dir=str(tmp_path)) == fresh


def test_upper_bound_small_sets_examples():
    for t in range(5):
        assert eq_upper_small_sets(3, t) >= Q_SEQ[3][t]
    assert eq_upper_small_sets(4, 8) >= 2
    assert eq_upper_small_sets(4, 0) >= 1
    with pytest.raises(ValueError):
        eq_upper_small_sets(3, 77)


def test_upper_bound_brackets_exact_counts():
    for d in (3, 4, 5):
        prof = small_profile(d)
        seq = Q_SEQ[d]
        for t in range(len(seq)):
            assert eq_upper_small_sets(d, t, profile=prof) >= seq[t], (d, t)


def test_upper_bound_tight_at_the_top():
    # at t = 2^(d-1) only the empty small set contributes, so the bound
    # collapses to exactly the two full parity classes
    for d in (3, 4, 5):
        assert eq_upper_small_sets(d, 1 << (d - 1)) == 2 == Q_SEQ[d][-1]


def test_scattered_counts_small_cases():
    counts = scattered_count_by_size(4, 3)
    assert counts[0] == 1
    assert counts[1] == 8
    # distance-4 pairs in the even class of Q_4: the 4 antipodal pairs
    assert counts[2] == 4
    assert counts.get(3, 0) == 0


def test_scattered_counts_match_brute_force():
    for d in range(1, 7):
        counts = scattered_count_by_size(d, 1 << (d - 1))
        assert counts == dict(enumerate(brute_scattered_counts(d))), d
    # the halved cubes of Q_5 and Q_6
    assert scattered_count_by_size(5, 16) == {0: 1, 1: 16, 2: 40}
    assert scattered_count_by_size(6, 32) == {0: 1, 1: 32, 2: 256, 3: 480,
                                              4: 120}


def test_lower_bound_scattered_values():
    assert lower_bound_scattered(5, 16) == 2 == Q_SEQ[5][16]
    # only the empty set contributes at the top of dimension 6
    assert lower_bound_scattered(6, 32) == 2
    assert lower_bound_scattered(6, 31) == 2 * binom(32, 31)
    assert lower_bound_scattered(6, 30) == 2 * binom(32, 30)


def test_lower_bound_scattered_refusals():
    for (d, t) in ((4, 6), (5, 8), (3, 4), (4, 8)):
        with pytest.raises(NotApplicableError):
            lower_bound_scattered(d, t)


def test_lower_bound_truncation_formula():
    # with an explicit cutoff the sum matches its hand expansion
    d, t, f = 4, 7, 2
    half, = (1 << (d - 1),)
    counts = scattered_count_by_size(d, f)
    expect = 2 * sum(counts.get(k, 0) * binom(half - d * k, t - k)
                     for k in range(f + 1))
    assert lower_bound_scattered(d, t, f=f) == expect
    with pytest.raises(NotApplicableError):
        lower_bound_scattered(d, 4, f=2)


def test_lower_bound_scattered_rejects_negative_cutoff():
    # a negative cutoff once lifted the size limit altogether, giving
    # "lower bounds" above the exact counts i_1(Q_4) = 16 and i_2(Q_4) = 88
    for t in (1, 2):
        with pytest.raises(ValueError, match="cutoff f = -1 is negative"):
            lower_bound_scattered(4, t, f=-1)
    for t in range(len(Q_SEQ[4])):
        for f in range((t + 1) // 2):
            assert lower_bound_scattered(4, t, f=f) <= Q_SEQ[4][t]


def test_identity_reweight_exact():
    lhs, rhs, eq = identity_reweight_check(4, 3, 1, 4)
    assert eq and lhs == rhs == binom(8 - 4, 3 - 1)
    lhs, rhs, eq = identity_reweight_check(5, 8, 2, 9)
    assert eq and lhs == binom(16 - 9, 8 - 2)
    # a = g = 0 degenerates to the plain binomial
    lhs, rhs, eq = identity_reweight_check(5, 6, 0, 0)
    assert eq and lhs == binom(16, 6)


def test_identity_reweight_refuses_extremes():
    with pytest.raises(NotApplicableError):
        identity_reweight_check(4, 0, 0, 1)
    with pytest.raises(NotApplicableError):
        identity_reweight_check(4, 8, 1, 2)


def test_neighborhood_additive_over_two_components():
    rng = random.Random(5)
    d = 5
    evens = [v for v in range(1 << d) if popcount(v) % 2 == 0]
    for _ in range(200):
        size = rng.randrange(1, 8)
        verts = tuple(sorted(rng.sample(evens, size)))
        a = vs(d, verts)
        comps = two_components(d, a)
        assert neighborhood(d, a).size == \
            sum(neighborhood(d, c).size for c in comps)
