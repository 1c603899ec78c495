import inspect
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stableseq import cube, graphs
from stableseq.cube import (NotApplicableError, VertexSet, closure,
                            eq_upper_small_sets, identity_reweight_check,
                            lower_bound_scattered, neighborhood,
                            scattered_count_by_size,
                            small_profile, small_set_scan, structure_stats,
                            two_components)
from stableseq.exact import count_by_size
from stableseq.numerics import binom

from util import cube_two_components

Q_SEQ = {d: count_by_size(graphs.hypercube(d)).counts for d in (3, 4, 5)}


def vs(d, verts):
    return VertexSet(d, sum(1 << v for v in verts))


def piece_masks(comps):
    """The 2-components as vertex masks; each must be a tuple of vertices
    in increasing order."""
    for c in comps:
        assert isinstance(c, tuple) and all(u < v for u, v in zip(c, c[1:])), c
    return [sum(1 << v for v in c) for c in comps]


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
    evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
    counts = []
    for k in range(len(evens) + 1):
        c = sum(1 for s in combinations(evens, k)
                if all((u ^ v).bit_count() >= 4 for u, v in combinations(s, 2)))
        if c == 0:
            break
        counts.append(c)
    return counts


# ---------------------------------------------------------------------------

def test_vertex_set_checks_itself():
    for d, bits, message in (
            (3, 1 << 40, r"^bitset is not a vertex set of Q_3$"),
            (3, 1 << 8, r"^bitset is not a vertex set of Q_3$"),
            (3, -1, r"^bitset is not a vertex set of Q_3$"),
            (21, 1, r"^dimension d = 21 outside \[1, 20\]$"),
            (0, 0, r"^dimension d = 0 outside \[1, 20\]$")):
        with pytest.raises(ValueError, match=message):
            VertexSet(d, bits)
    assert VertexSet(1, 0b11).size == 2
    assert VertexSet(3, (1 << 8) - 1).size == 8


def test_set_functions_read_the_dimension_from_the_set():
    for fn in (neighborhood, closure, two_components, structure_stats):
        assert list(inspect.signature(fn).parameters) == ["a"]
    verts = [0, 17]
    a = cube.vertex_set(5, verts)
    assert neighborhood(a).d == closure(a).d == 5
    assert set(neighborhood(a).vertices()) == brute_nbhd(5, verts)
    assert set(closure(a).vertices()) == brute_closure(5, verts)
    st5 = structure_stats(a)
    assert (st5.size, st5.nbhd, st5.closure) == \
        (2, len(brute_nbhd(5, verts)), len(brute_closure(5, verts)))
    assert [set(c) for c in st5.components] == \
        [set(c) for c in brute_two_components(5, verts)]
    with pytest.raises(ValueError, match=r"^dimension d = 1 outside \[2, 20\]$"):
        structure_stats(VertexSet(1, 0b1))


def test_neighborhood_examples():
    d = 4
    a = vs(d, [0])
    na = neighborhood(a)
    assert na.size == d
    assert sorted(na.vertices()) == [1, 2, 4, 8]
    assert neighborhood(vs(d, [])).bits == 0
    a = vs(3, [0b000, 0b011])
    assert sorted(neighborhood(a).vertices()) == [0b001, 0b010, 0b100, 0b111]


def test_closure_examples():
    for d in (3, 4):
        for v in range(1 << d):
            assert closure(vs(d, [v])).vertices() == [v]
    # the whole even class closes to itself and is not small
    d = 4
    evens = [v for v in range(16) if v.bit_count() % 2 == 0]
    cl = closure(vs(d, evens))
    assert sorted(cl.vertices()) == evens
    assert not structure_stats(vs(d, evens)).small
    assert closure(vs(3, [])).bits == 0


def test_closure_literal_for_non_independent_sets():
    # adjacent pair: N(A) misses some neighbors of each member, so the
    # literal closure drops both
    d = 3
    a = vs(d, [0b000, 0b001])
    cl = closure(a)
    assert 0b000 not in cl.vertices()


def test_two_components_examples():
    comps = two_components(vs(3, [0b000, 0b011]))
    assert comps == [(0b000, 0b011)]
    comps = two_components(vs(4, [0b0000, 0b1111]))
    assert comps == [(0b0000,), (0b1111,)]
    comps = two_components(vs(4, [0b0000]))
    assert comps == [(0b0000,)]
    with pytest.raises(ValueError):
        two_components(vs(3, [0b000, 0b001]))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.booleans(), st.data())
def test_two_components_match_row_flood_fill(d, odd, data):
    # any set inside one parity class, from a few vertices to most of it
    picks = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                               max_size=min(1 << d, 120)))
    bits = 0
    for x in picks:
        bits |= 1 << (x ^ (x.bit_count() + odd) % 2)
    comps = two_components(VertexSet(d, bits))
    assert piece_masks(comps) == cube_two_components(d, bits)


def test_two_components_at_the_dimension_cap():
    # 150 even vertices of Q_20, half of them a distance-2 step from an
    # earlier one, so pieces of several vertices beside single ones
    rng = random.Random(20)
    verts = []
    while len(verts) < 150:
        if verts and rng.random() < 0.5:
            i, j = rng.sample(range(20), 2)
            v = rng.choice(verts) ^ 1 << i ^ 1 << j
        else:
            v = rng.getrandbits(20)
            v ^= v.bit_count() % 2
        if v not in verts:
            verts.append(v)
    a = cube.vertex_set(20, verts)
    comps = two_components(a)
    assert piece_masks(comps) == cube_two_components(20, a.bits)
    assert max(map(len, comps)) > 5 and min(map(len, comps)) == 1


def test_structure_stats_sides():
    st = structure_stats(vs(4, [0b0000, 0b0011]))
    assert (st.size, st.nbhd, st.closure) == (2, 6, 2)
    assert st.small and st.comps == 1 and st.max_comp == 2
    assert vs(4, [0b0000]).side == cube.SIDE_EVEN
    assert vs(4, [0b0001]).side == cube.SIDE_ODD
    assert vs(4, [0b0000, 0b0001]).side == cube.SIDE_MIXED
    # the decomposition is not defined across parities
    mixed = structure_stats(vs(4, [0b0000, 0b0001]))
    assert mixed.comps is None and mixed.max_comp is None
    empty = structure_stats(vs(4, []))
    assert empty.comps == 0 and empty.max_comp == 0


def test_side_matches_vertex_parities():
    # the even-weight mask against a parity test of each vertex, from Q_1
    # up: empty, one-class and mixed sets
    rng = random.Random(7)
    for d in range(1, 9):
        n = 1 << d
        evens = sum(1 << v for v in range(n) if v.bit_count() % 2 == 0)
        cases = [0, evens, evens ^ (1 << n) - 1, (1 << n) - 1]
        cases += [rng.getrandbits(n) & rng.choice(cases[1:])
                  for _ in range(50)]
        for bits in cases:
            parities = {v.bit_count() % 2 for v in range(n) if bits >> v & 1}
            want = (cube.SIDE_MIXED if len(parities) == 2 else
                    cube.SIDE_ODD if parities == {1} else cube.SIDE_EVEN)
            assert VertexSet(d, bits).side == want, (d, bits)


def test_vertices_ascending_by_bit_test():
    # the digit scan against a test of each bit, from Q_1 up: empty and
    # full sets, the lowest and highest vertex alone, and random sets; in
    # Q_20, a set built from its sorted vertices
    rng = random.Random(11)
    for d in range(1, 11):
        n = 1 << d
        cases = [0, (1 << n) - 1, 1, 1 << n - 1]
        cases += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(5)]
        for bits in cases:
            want = [v for v in range(n) if bits >> v & 1]
            assert VertexSet(d, bits).vertices() == want, (d, bits)
    verts = sorted({0, (1 << 20) - 1, *rng.sample(range(1 << 20), 3000)})
    assert vs(20, verts).vertices() == verts


def test_against_brute_force_small_sets():
    for d in (3, 4):
        evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
        for size in (1, 2, 3):
            for verts in combinations(evens, size):
                a = vs(d, verts)
                assert set(neighborhood(a).vertices()) == brute_nbhd(d, verts)
                assert set(closure(a).vertices()) == brute_closure(d, verts)
                ours = sorted(frozenset(c)
                              for c in two_components(a))
                assert ours == brute_two_components(d, verts)


def test_against_brute_force_random_larger_sets():
    rng = random.Random(4242)
    for d in (5, 6):
        evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
        for _ in range(100):
            size = rng.randrange(1, 9)
            verts = tuple(sorted(rng.sample(evens, size)))
            a = vs(d, verts)
            assert set(neighborhood(a).vertices()) == brute_nbhd(d, verts)
            assert set(closure(a).vertices()) == brute_closure(d, verts)
            ours = sorted(frozenset(c)
                          for c in two_components(a))
            assert ours == brute_two_components(d, verts)
            assert structure_stats(a).small == \
                (len(brute_closure(d, verts)) <= 1 << (d - 2))


def test_scattered_sets_have_full_neighborhoods():
    # cl(A) <= 1 forces |N(A)| = d |A|: no two members share a neighbor
    for d in (3, 4, 5):
        evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
        for size in (1, 2, 3):
            for verts in combinations(evens, size):
                a = vs(d, verts)
                comps = two_components(a)
                if max(map(len, comps)) <= 1:
                    assert neighborhood(a).size == d * size, (d, verts)


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
        evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
        for a in range(1, 6):
            if a > len(evens):
                continue
            for verts in combinations(evens, a):
                assert len(brute_nbhd(d, verts)) >= d * a - 2 * a * (a - 1), \
                    (d, verts)


def test_small_scan_totals():
    # the whole (|A|, |N(A)|, 2-linked) table matches a brute-force census
    # of the small sets; the empty set is keyed (0, 0, False)
    for d in (3, 4):
        evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
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
    evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
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
    assert closure(a).bits & ~closure(b).bits == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.data())
def test_scan_tables_give_the_closure(d, data):
    # the scan's lookups on N(A), over class indices, name the vertices of
    # N(A) and of [A] for any A in the even class
    evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
    odds = [v for v in range(1 << d) if v.bit_count() % 2 == 1]
    chosen = data.draw(st.sets(st.integers(0, len(evens) - 1)))
    rows = cube._even_rows(d)
    lo, hi = cube._closure_tables(rows)
    nbhd = 0
    for i in chosen:
        nbhd |= rows[i]
    a = vs(d, [evens[i] for i in chosen])
    assert {odds[j] for j in range(len(odds)) if nbhd >> j & 1} == \
        set(neighborhood(a).vertices())
    inside = lo[nbhd & 255] & hi[nbhd >> 8]
    assert {evens[i] for i in range(len(evens)) if inside >> i & 1} == \
        set(closure(a).vertices())
    assert inside.bit_count() == closure(a).size


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.data())
def test_flip_closure_matches_per_vertex_definition(d, data):
    # sets of any parity, mixed and adjacent pairs included, where the
    # literal closure may drop members of A
    bits = data.draw(st.integers(0, (1 << (1 << d)) - 1))
    if data.draw(st.booleans()):
        bits &= data.draw(st.integers(0, (1 << (1 << d)) - 1))
    verts = [v for v in range(1 << d) if bits >> v & 1]
    a = VertexSet(d, bits)
    assert set(neighborhood(a).vertices()) == brute_nbhd(d, verts)
    assert set(closure(a).vertices()) == brute_closure(d, verts)


def test_flip_closure_at_the_dimension_cap():
    # 2**20 vertices: the closure and neighborhood come from d coordinate
    # flips of 2**20-bit sets, not from one row per vertex
    a = cube.vertex_set(20, [0, 3, 5])
    st20 = structure_stats(a)
    assert (st20.size, st20.nbhd, st20.closure, st20.small) == \
        (3, 55, 3, True)
    assert set(neighborhood(a).vertices()) == brute_nbhd(20, [0, 3, 5])


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


def test_small_scan_reads_no_environment(tmp_path, monkeypatch):
    # the disk cache is reached only through cache_dir=
    monkeypatch.setenv("STABLESEQ_CACHE_DIR", str(tmp_path / "env"))
    assert small_set_scan(3) == small_set_scan(3, cache_dir=str(tmp_path / "arg"))
    assert small_profile(3)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arg"]


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
    evens = [v for v in range(1 << d) if v.bit_count() % 2 == 0]
    for _ in range(200):
        size = rng.randrange(1, 8)
        verts = tuple(sorted(rng.sample(evens, size)))
        a = vs(d, verts)
        comps = two_components(a)
        assert neighborhood(a).size == \
            sum(neighborhood(vs(d, c)).size for c in comps)
