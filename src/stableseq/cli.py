"""Command-line front end.

Exit codes: 0 success, 1 a verified mathematical invariant failed during the
run (reserved for CI wiring; it should never fire), 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import bounds as bnd
from . import cube, cube_estimates as est, graphs, numerics, percolation, seqshape
from .exact import count_by_size, polynomial_eval

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _emit(args, payload_json: dict, plain_lines: list[str],
          csv_text: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload_json, sort_keys=True))
    elif args.format == "csv":
        if csv_text is None:
            raise SystemExit("csv format not available for this verb")
        sys.stdout.write(csv_text)
    else:
        for line in plain_lines:
            print(line)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    g = graphs.parse_graph_spec(args.graph)
    seq = count_by_size(g)
    # Only the chosen format is built: converting a long sequence of big
    # counts to decimal takes seconds.
    if args.format == "json":
        print(seq.to_json(args.graph))
    elif args.format == "csv":
        sys.stdout.write("t,count\n" + "".join(
            f"{t},{c}\n" for t, c in enumerate(seq.counts)))
    else:
        print(f"graph {args.graph}: alpha = {seq.alpha}, total = {seq.total}")
        for t, c in enumerate(seq.counts):
            print(f"  i_{t} = {c}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = graphs.parse_graph_spec(args.graph)
    b = graphs.bipartition(g)
    degs = set(g.degrees())
    if len(degs) != 1:
        print("bounds verb needs a regular bipartite graph", file=sys.stderr)
        return EXIT_USAGE
    d = args.d if args.d is not None else degs.pop()
    if args.d is not None and degs != {args.d}:
        print(f"graph is {degs.pop()}-regular, not {args.d}-regular",
              file=sys.stderr)
        return EXIT_USAGE
    seq = count_by_size(g)
    table = bnd.build_bound_table(g.n, d, seq)
    violations = bnd.check_sandwich(g.n, d, seq)
    lambdas = [Fraction(x) for x in args.lam] or \
        [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    violations += bnd.check_partition_dominance(g, b, d, seq, lambdas)
    payload = table.to_json_dict()
    payload["violations"] = [v.detail for v in violations]
    payload["partition_bounds"] = [
        {
            "lambda": str(lam),
            "regular_log2": mp.nstr(bnd.partition_upper_regular_log2(g.n, d, lam), 18),
            "almost_regular_log2": mp.nstr(
                bnd.partition_upper_almost_regular_log2(g, b, d, lam), 18),
            "exact_value": str(polynomial_eval(seq, lam)),
        }
        for lam in lambdas
    ]
    plain = [f"bound table for {args.graph} (d = {d}); "
             f"violations: {len(violations)}"]
    plain += [v.detail for v in violations]
    _emit(args, payload, plain, table.to_csv())
    return EXIT_INVARIANT if violations else EXIT_OK


def cmd_check(args) -> int:
    g = graphs.parse_graph_spec(args.graph)
    seq = count_by_size(g)
    payload: dict = {"graph": args.graph, "property": args.property,
                     "alpha": seq.alpha}
    if args.property == "unimodal":
        holds, witness = seqshape.is_unimodal(seq)
        payload["holds"] = holds
        payload["witness"] = list(witness) if witness else None
        verdict = "unimodal" if holds else f"not unimodal, witness {witness}"
    elif args.property == "final-third":
        holds, witness = seqshape.check_final_third(seq)
        payload["holds"] = holds
        payload["witness"] = list(witness) if witness else None
        verdict = ("final third decreasing" if holds
                   else f"final third violated at {witness}")
    else:  # bgs
        try:
            rep = seqshape.check_property_bgs(
                seq, g.n // 2, args.beta, args.gamma, args.step)
        except ValueError as exc:
            print(f"property check rejected: {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload["holds"] = rep.holds
        payload["increasing"] = {
            "interval": [rep.increasing.lo, rep.increasing.hi],
            "holds": rep.increasing.holds,
            "witness": list(rep.increasing.witness) if rep.increasing.witness else None,
        }
        payload["decreasing"] = {
            "interval": [rep.decreasing.lo, rep.decreasing.hi],
            "holds": rep.decreasing.holds,
            "witness": list(rep.decreasing.witness) if rep.decreasing.witness else None,
        }
        verdict = ("holds" if rep.holds else "fails") + \
            f" for (beta={args.beta}, gamma={args.gamma}, s={args.step})"
        lines = [f"{args.graph}: {verdict}"]
        for rpt in (rep.increasing, rep.decreasing):
            wit = f", witness {rpt.witness}" if rpt.witness else ""
            lines.append(f"  {rpt.kind:<10} [{rpt.lo}, {rpt.hi}] step {rpt.s}: "
                         f"{'holds' if rpt.holds else 'fails'}{wit}")
        _emit(args, payload, lines)
        return EXIT_OK
    _emit(args, payload, [f"{args.graph}: {verdict}"])
    return EXIT_OK


def cmd_cube_structure(args) -> int:
    verts = [int(x) for x in args.set.split(",")] if args.set else []
    a = cube.VertexSet(args.d, sum(1 << v for v in verts))
    stats = cube.structure_stats(args.d, a)
    payload = json.loads(cube.structure_stats_json(args.d, a))
    if a.side == cube.SIDE_MIXED:
        payload["components"] = None
    else:
        payload["components"] = [sorted(c.vertices())
                                 for c in cube.two_components(args.d, a)]
    _emit(args, payload,
          [f"d={args.d} A={sorted(a.vertices())}: size {stats.size}, "
           f"nbhd {stats.nbhd}, closure {stats.closure}, small {stats.small}, "
           f"comps {stats.comps}, max comp {stats.max_comp}"])
    return EXIT_OK


def cmd_cube_window(args) -> int:
    rows = []
    for t in args.t:
        est_row = est.estimate_window(args.d, t, args.c_constant)
        rows.append(est_row)
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["d", "t", "range", "central_log2", "e1_log2", "e2_log2",
                "e1_applicable", "e2_applicable"])
    for r in rows:
        w.writerow([
            r.d, r.t, r.tag, mp.nstr(r.central_log2, 18),
            mp.nstr(mp.log(r.e1, 2), 12) if r.e1 is not None else "",
            mp.nstr(mp.log(r.e2, 2), 12) if r.e2 is not None else "",
            r.e1 is not None, r.e2 is not None,
        ])
    plain = []
    for r in rows:
        win = (f"window [{mp.nstr(r.e1, 10)}, {mp.nstr(r.e2, 10)}]"
               if r.e1 is not None and r.e2 is not None
               else f"window not applicable ({r.e1_reason or r.e2_reason}); "
                    "central value only")
        plain.append(f"d={r.d} t={r.t} [{r.tag}] central_log2 = "
                     f"{mp.nstr(r.central_log2, 12)}; {win}")
    _emit(args, {"rows": [r.to_json_dict() for r in rows]}, plain, out.getvalue())
    return EXIT_OK


def cmd_transition(args) -> int:
    if args.d > 5:
        print("exact transition ratios need d <= 5", file=sys.stderr)
        return EXIT_USAGE
    g = graphs.hypercube(args.d)
    seq = count_by_size(g)
    ts = args.t or list(range(0, (1 << (args.d - 1)) + 1))
    rows = []
    for t in ts:
        gcoord = seqshape.transition_g(args.d, t)
        ratio = seqshape.transition_ratio_log2(args.d, t, it=seq[t])
        predicted = seqshape.predicted_transition_limit(gcoord)
        rows.append({
            "d": args.d, "t": t,
            "g": f"{gcoord.numerator}/{gcoord.denominator}",
            "ratio_log2": mp.nstr(ratio, 12),
            "predicted_limit": mp.nstr(predicted, 12),
        })
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["d", "t", "g", "ratio_log2", "predicted_limit"])
    for r in rows:
        w.writerow([r["d"], r["t"], r["g"], r["ratio_log2"],
                    r["predicted_limit"]])
    _emit(args, {"rows": rows},
          [f"d={r['d']} t={r['t']} g={r['g']} ratio_log2={r['ratio_log2']} "
           f"predicted={r['predicted_limit']}" for r in rows],
          out.getvalue())
    return EXIT_OK


def cmd_percolate(args) -> int:
    name, _, rest = args.base.partition(":")
    if name == "knn":
        a, b = (int(x) for x in rest.split(","))
        if a != b:
            print("experiment base must be a balanced knn:n,n", file=sys.stderr)
            return EXIT_USAGE
        cfg = percolation.PercolationConfig(base_side=a, p=args.p,
                                            seed=args.seed, trials=args.trials)
        summary = percolation.run_experiment(cfg, args.epsilon)
        _emit(args, summary.to_json_dict(),
              [f"success rate {summary.success_rate} over {cfg.trials} trials "
               f"(epsilon = {args.epsilon}, d' = {summary.d_prime})"])
        return EXIT_OK
    g = graphs.parse_graph_spec(args.base)
    sample = percolation.percolate(g, args.p, args.seed)
    sys.stdout.write(graphs.graph_to_text(sample))
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")

    from .verify import run_suite
    for name, ok, detail in run_suite(args.suite):
        report(name, ok, detail)
    print(f"{failures} failure(s)")
    return EXIT_INVARIANT if failures else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stableseq",
        description="Exact independent-set sequences, entropy and "
                    "partition-function bounds, hypercube estimate windows, "
                    "shape checkers, and percolation experiments.")
    ap.add_argument("--precision", type=int, default=numerics.DEFAULT_PRECISION_BITS,
                    metavar="BITS", help="working mantissa bits for "
                    "transcendental evaluation (default %(default)s)")
    ap.add_argument("--c-constant", type=_fraction, default=Fraction(1),
                    metavar="RATIONAL", dest="c_constant",
                    help="unpinned constant in the density-window "
                    "classification (default 1)")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "plain"),
                       default="plain")

    p = sub.add_parser("count", help="exact independent-set counts by size")
    p.add_argument("--graph", required=True, help="graph spec, e.g. qd:4, "
                   "knn:3,3, cycle:12, path:5, aems, crown:4, "
                   "circ:12,1,5, file:PATH")
    add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bounds", help="per-size bound table and exact "
                       "sandwich/domination checks for a regular bipartite "
                       "graph")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--d", type=int, default=None,
                   help="degree (default: inferred)")
    p.add_argument("--lam", action="append", default=[], metavar="RATIONAL",
                   help="activity for the partition-function checks "
                   "(repeatable; default 1/4 1/2 1 2 4)")
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="sequence shape verdicts")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--property", choices=("unimodal", "final-third", "bgs"),
                   required=True)
    p.add_argument("--beta", type=_fraction, default=Fraction(0))
    p.add_argument("--gamma", type=_fraction, default=Fraction(0))
    p.add_argument("--step", type=int, default=1, help="step size s for bgs")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cube-structure", help="neighborhood, closure, "
                       "smallness and 2-components of a hypercube vertex set")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--set", default="", help="comma-separated vertex indices")
    add_format(p)
    p.set_defaults(func=cmd_cube_structure)

    p = sub.add_parser("cube-window", help="central estimate and error "
                       "window for hypercube counts")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--t", type=int, action="append", required=True,
                   help="set size (repeatable)")
    add_format(p)
    p.set_defaults(func=cmd_cube_window)

    p = sub.add_parser("transition", help="ratio of exact counts to twice "
                       "the one-sided binomial, against the predicted limit")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--t", type=int, action="append", default=None,
                   help="set size (repeatable; default: all)")
    add_format(p)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("percolate", help="seeded percolation; on a balanced "
                       "knn base runs the interval-property experiment, on "
                       "any other base emits one sampled graph")
    p.add_argument("--base", required=True, help="base graph spec")
    p.add_argument("--p", type=_fraction, required=True,
                   help="edge retention probability (rational)")
    p.add_argument("--seed", type=int, default=0, help="stream seed")
    p.add_argument("--trials", type=int, default=100,
                   help="experiment trial count (default %(default)s)")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 10),
                   help="interval-property parameter (default 1/10)")
    add_format(p)
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("small", "full"), default="small")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The verb runs at the requested mpmath precision and, since a count can
    # be longer than CPython's int-to-str limit (4300 digits by default, from
    # 3.10.7 on), without that limit; the caller's values come back afterwards.
    saved_prec = mp.mp.prec, mp.iv.prec
    saved_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        numerics.set_precision(args.precision)
        return args.func(args)
    except (graphs.GraphError, cube.NotApplicableError, ValueError,
            numerics.UndecidedComparison) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        mp.mp.prec, mp.iv.prec = saved_prec
        if saved_digits is not None:
            sys.set_int_max_str_digits(saved_digits)


if __name__ == "__main__":
    sys.exit(main())
