"""Acceptance suite: one test per contract criterion, each printing one
CRITERION pass/fail line (run pytest with --capture=tee-sys to see the
lines for passing tests too).

Three criteria pin desk-scale parameters at which the underlying
inequalities are provably false; their tests implement the stated checks
faithfully, report the exact margins, and are expected to stay red:

* criterion 7: the closed-form bound on weighted sums over small 2-linked
  sets fails for component floor k = 1 at five of the six (d, lam) combos
  (exact enumeration; the imported inequality only claims validity for
  activities above an unspecified threshold constant);
* criterion 8: the increasing-top closing inequality fails for every
  dimension in [14, 200], so no onset dimension d0 <= 40 exists;
* criterion 12: at d = 64 the sharpened error-factor claims fail at the
  low end of the upper density window (they need d around 2000 there).
"""

import time
from fractions import Fraction

import mpmath as mp

from stableseq import bounds as bnd
from stableseq import cube, cube_estimates as est, graphs
from stableseq import percolation as pc
from stableseq import seqshape as ss
from stableseq.cube import NotApplicableError
from stableseq.exact import count_by_size, polynomial_eval, \
    sequence_from_profile, side_profile

from util import bipartite_sample, regular_bipartite_corpus


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_claw_composite_fixture():
    start = time.perf_counter()
    seq = count_by_size(graphs.claw_composite())
    elapsed = time.perf_counter() - start
    ok = seq.counts == (1, 49, 48, 64) and elapsed < 1.0
    _report(1, ok, f"counts {list(seq.counts)} in {elapsed:.3f}s")
    assert seq.counts == (1, 49, 48, 64)
    assert elapsed < 1.0


def test_criterion_2_hypercube_backends_and_unimodality():
    start = time.perf_counter()
    elapsed_q5 = None
    ok = True
    for d in range(1, 6):
        g = graphs.hypercube(d)
        t0 = time.perf_counter()
        via_engine = count_by_size(g)
        via_profile = sequence_from_profile(side_profile(g))
        if d == 5:
            elapsed_q5 = time.perf_counter() - t0
        agree = via_engine.counts == via_profile.counts
        uni, _ = ss.is_unimodal(via_engine)
        ok = ok and agree and uni
        assert agree, f"backends disagree at d={d}"
        assert uni, f"sequence not unimodal at d={d}"
    total = time.perf_counter() - start
    ok = ok and elapsed_q5 < 10.0
    _report(2, ok, f"d=1..5 agree and unimodal; d=5 took {elapsed_q5:.2f}s "
                   f"(total {total:.2f}s)")
    assert elapsed_q5 < 10.0


def test_criterion_3_count_sandwich_on_corpus():
    corpus = regular_bipartite_corpus()
    assert len(corpus) >= 20
    assert all(g.n <= 24 for _n, g, _d in corpus)
    violations = []
    for name, g, d in corpus:
        seq = count_by_size(g)
        violations.extend((name, v) for v in bnd.check_sandwich(g.n, d, seq))
    _report(3, not violations,
            f"{len(corpus)} graphs, {len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_4_partition_function_bounds():
    corpus = regular_bipartite_corpus()
    lambdas = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2),
               Fraction(4)]
    violations = []
    for name, g, d in corpus:
        seq = count_by_size(g)
        h = graphs.regularity_profile(g, graphs.bipartition(g), d)
        values = [(lam, polynomial_eval(seq, lam)) for lam in lambdas]
        violations.extend(
            (name, v) for v in bnd.check_partition_dominance(g.n, d, h, values))
    tight = []
    for d in range(2, 9):
        exact = polynomial_eval(
            count_by_size(graphs.complete_bipartite(d, d)), 1)
        bound = bnd.partition_upper_regular_value(2 * d, d, 1)
        if bound != exact + 1:
            tight.append(d)
    ok = not violations and not tight
    _report(4, ok, f"{len(corpus)} graphs x {len(lambdas)} activities clean; "
                   f"tightness failures {tight}")
    assert not violations, violations[:5]
    assert not tight


def test_criterion_5_reweighting_identity_grid():
    checked = 0
    failures = []
    for d in range(3, 11):
        half = 1 << (d - 1)
        for t in sorted({1, half // 4, half // 2, 3 * half // 4, half - 1}):
            if not 0 < t < half:
                continue
            for a in (0, 1, 2):
                if a > t:
                    continue
                for g in sorted({a, min(a + d, half), min(a + 2 * d, half)}):
                    lhs, rhs, equal = cube.identity_reweight_check(d, t, a, g)
                    checked += 1
                    if not equal:
                        failures.append((d, t, a, g, lhs, rhs))
    ok = checked >= 200 and not failures
    _report(5, ok, f"{checked} grid points, {len(failures)} failures")
    assert checked >= 200
    assert not failures, failures[:5]


def test_criterion_6_hypercube_enumeration_inequalities():
    violations = []
    applicable = {}
    start = time.perf_counter()
    elapsed_d5 = None
    for d in (3, 4, 5):
        t0 = time.perf_counter()
        seq = count_by_size(graphs.hypercube(d))
        prof = cube.small_profile(d)
        applicable[d] = 0
        for t in range(seq.alpha + 1):
            upper = cube.eq_upper_small_sets(d, t, profile=prof)
            if upper < seq[t]:
                violations.append(("upper", d, t, upper, seq[t]))
            try:
                lower = cube.lower_bound_scattered(d, t)
            except NotApplicableError:
                continue
            applicable[d] += 1
            if lower > seq[t]:
                violations.append(("lower", d, t, lower, seq[t]))
        if d == 5:
            elapsed_d5 = time.perf_counter() - t0
    total = time.perf_counter() - start
    ok = not violations and elapsed_d5 < 120
    _report(6, ok, f"zero violations over d=3,4,5; lower bound applicable at "
                   f"{applicable} points; d=5 sweep {elapsed_d5:.2f}s "
                   f"(total {total:.2f}s)")
    assert not violations, violations[:5]
    # the overlap precondition confines the lower bound to the very top of
    # the size range at desk scale
    assert applicable == {3: 0, 4: 0, 5: 1}
    assert elapsed_d5 < 120


def test_criterion_7_weighted_sum_bounds():
    violations = []
    checked = 0
    for d in (4, 5):
        scan = cube.small_set_scan(d)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            total = sum(c * est.big_f(lam, a, g)
                        for (a, g, _l), c in scan.items())
            checked += 1
            if not est.small_sum_dominates(d, lam, total):
                violations.append(("full-sum", d, str(lam), float(total)))
            for k in (1, 2, 6):
                linked_total = sum(c * est.big_f(lam, a, g)
                                   for (a, g, linked), c in scan.items()
                                   if linked and a >= k)
                checked += 1
                if not est.linked_sum_dominates(d, lam, k, linked_total):
                    _e, bound = est.linked_sum_bound_parts(d, lam, k)
                    violations.append(
                        ("linked-sum", d, str(lam), k,
                         f"sum {float(linked_total):.6f} > bound "
                         f"{float(bound):.6f}"))
    _report(7, not violations,
            f"{checked} comparisons, {len(violations)} violations"
            + (f": {violations}" if violations else ""))
    assert not violations, (
        "the 2-linked weighted-sum bound fails at component floor k = 1 for "
        "these desk-scale activities (the inequality's unstated activity "
        f"threshold excludes them): {violations}")


def test_criterion_8_closing_inequalities_scan():
    scan = est.case_scan(200)
    d0s = {name: scan[name]["d0"] for name in ("case2", "case3", "case4")}
    ok = all(d0 is not None and d0 <= 40 for d0 in d0s.values())
    _report(8, ok, f"onset dimensions {d0s}; "
                   f"case4 fails at d in {scan['case4']['fails'][:3]}..200")
    assert d0s["case2"] == 2
    assert d0s["case3"] == 2
    assert d0s["case4"] is not None and d0s["case4"] <= 40, (
        "the increasing-top closing inequality fails for every d in "
        f"[14, 200]: first failures {scan['case4']['fails'][:5]}; its "
        "left-right margin grows like 5 d^4 / 2^d in the wrong direction, "
        "so no onset dimension exists")


def test_criterion_9_growth_engine_on_corpus():
    corpus = regular_bipartite_corpus()
    violations = []
    fired = 0
    for name, g, d in corpus:
        seq = count_by_size(g)
        n = g.n // 2
        top = (9 * n) // 20  # floor((1 - eps) n / 2) at eps = 1/10
        for j in range(top + 1):
            for l in range(j + 1, top + 1):
                if bnd.suff_condition_regular(n, d, j, l):
                    fired += 1
                    if not seq[l] > seq[j]:
                        violations.append((name, j, l))
    _report(9, not violations,
            f"{fired} fired conditions, {len(violations)} violations")
    assert not violations, violations[:5]


def test_criterion_10_final_third_on_bipartite_sample():
    sample = bipartite_sample()
    assert len(sample) >= 500
    assert all(g.n <= 14 for g in sample)
    violations = []
    for idx, g in enumerate(sample):
        seq = count_by_size(g)
        holds, witness = ss.check_final_third(seq)
        if not holds:
            violations.append((idx, witness, seq.counts))
    _report(10, not violations,
            f"{len(sample)} bipartite graphs, {len(violations)} violations")
    assert not violations, violations[:3]


def test_criterion_11_percolation_harness():
    small = dict(base="knn:16,16", p=Fraction(1, 2), seed=20240501,
                 trials=10, epsilon=Fraction(1, 10))
    # the same arguments give the same summary, every field compared
    one = pc.run_experiment(**small)
    two = pc.run_experiment(**small)
    assert one == two, "summary not reproducible"
    full = dict(base="knn:16,16", p=Fraction(1, 2), seed=20240501,
                trials=100, epsilon=Fraction(1, 10))
    summary = pc.run_experiment(**full)
    # per-trial records are keyed by (seed, trial): extending the trial
    # count must not disturb earlier trials
    assert summary.records[:10] == one.records
    rate = summary.success_rate
    ok = rate >= Fraction(9, 10)
    _report(11, ok, f"deterministic; success rate {rate} over 100 trials")
    assert rate >= Fraction(9, 10)


def test_criterion_12_error_factor_window_at_d64():
    d = 64
    half = 1 << (d - 1)
    lo = int(mp.ceil(half * (1 - 1 / mp.sqrt(2) + 2 * mp.log(d, 2) / d)))
    grid = [lo + round(i * (half - lo) / 49) for i in range(50)]
    e1_bar = 1 - mp.mpf(d) ** -5
    e2_bar = 1 + mp.mpf(d) ** -3
    e1_checked = e2_checked = 0
    violations = []
    for t in grid:
        if t > half:   # float rounding; neither factor exists past 2^(d-1)
            continue
        w = est.estimate_window(d, t)
        if w.e1_reason is None:
            e1_checked += 1
            e1 = w.e1
            if not e1 >= e1_bar:
                violations.append(
                    ("E1", t, f"1 - E1 = {mp.nstr(1 - e1, 6)} exceeds "
                              f"1/d^5 = {mp.nstr(1 - e1_bar, 6)}"))
        if w.e2_reason is None:
            e2_checked += 1
            e2 = w.e2
            if not e2 <= e2_bar:
                violations.append(
                    ("E2", t, f"E2 - 1 = {mp.nstr(e2 - 1, 6)} exceeds "
                              f"1/d^3 = {mp.nstr(e2_bar - 1, 6)}"))
    ok = not violations
    _report(12, ok, f"E1 computable at {e1_checked}/50 grid points, E2 at "
                    f"{e2_checked}/50; {len(violations)} violations"
                    + (f": {violations}" if violations else ""))
    assert not violations, (
        "the sharpened error-factor claims fail at the low end of the upper "
        "density window at d = 64 (the enumeration cutoff near 1.2e6 makes "
        "3 f^2 / t and d^2 f^2 / 2^(d-1) dominate the claimed polynomial "
        f"margins; they need d around 2000): {violations}")
