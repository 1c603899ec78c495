"""Command-line front end, and the only module that knows the output
formats: the library returns plain values (ints, Fractions, mpmath numbers
and frozen dataclasses of them), and each verb here turns them into JSON,
CSV or plain lines.

Only graphs and exact are imported here; each verb imports the modules it
runs, so count and check never load mpmath or the experiment modules.

Exit codes: 0 success, 1 a verified mathematical invariant failed during the
run (reserved for CI wiring; it should never fire), 2 usage errors and a
stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
import sys
import time
from collections.abc import Iterable
from fractions import Fraction

from . import graphs
from .exact import count_by_size, polynomial_eval

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _wire(x) -> str:
    """JSON form of the values json cannot write itself: a Fraction as
    p/q, denominator included, and an mpmath number to 18 significant
    digits."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    import mpmath as mp
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 18)
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _fields(result, **renames) -> dict:
    """The fields of a result dataclass by name, with the renamed ones under
    their wire names."""
    return {renames.get(k, k): v for k, v in vars(result).items()}


def _emit(args, payload: dict, plain_lines: Iterable[str],
          csv_header: Iterable[str] | None = None,
          csv_rows: Iterable[Iterable] = ()) -> None:
    """Write a verb's output in the chosen format: the JSON payload, the
    plain lines, or the CSV header and rows (no header for a verb without a
    CSV form).  Every CSV line ends in "\n".  Only the chosen output is
    read, so the lines and rows may be generators."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=_wire))
    elif args.format == "csv":
        if csv_header is None:
            raise ValueError("csv format not available for this verb")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        for line in plain_lines:
            print(line)


def _at_working_precision(verb):
    """verb, run at numerics.WORKING_BITS, with the caller's mpmath
    precision given back afterwards.  Only the verbs that evaluate mpmath
    take it, so the others never import mpmath."""
    @functools.wraps(verb)
    def run(args) -> int:
        from .numerics import working_precision
        with working_precision():
            return verb(args)
    return run


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    seq = count_by_size(graphs.parse_graph_spec(args.graph))
    # Each count is converted to decimal once, here, and every format reuses
    # the strings: for a long sequence of big counts that takes seconds.
    counts = [str(c) for c in seq.counts]
    total = str(seq.total)
    payload = {"graph": args.graph, "alpha": seq.alpha, "total": total,
               "counts": counts}
    head = f"graph {args.graph}: alpha = {seq.alpha}, total = {total}"
    _emit(args, payload,
          itertools.chain([head], (f"  i_{t} = {c}" for t, c in enumerate(counts))),
          ("t", "count"), enumerate(counts))
    return EXIT_OK


@_at_working_precision
def cmd_bounds(args) -> int:
    import mpmath as mp
    from . import bounds as bnd
    g = graphs.parse_graph_spec(args.graph)
    b = graphs.bipartition(g)
    degs = set(g.degrees())
    if len(degs) != 1:
        raise ValueError("bounds verb needs a regular bipartite graph")
    d = degs.pop()
    seq = count_by_size(g)
    rows = bnd.build_bound_table(g.n, d, seq)
    payload = {"n": g.n // 2, "d": d, "rows": [vars(r) for r in rows]}
    violations = bnd.check_sandwich(g.n, d, seq)
    # h(G, d) once per call and P(G, lam) once per activity, shared by the
    # exact checks and the printed bounds
    h = graphs.regularity_profile(g, b, d)
    values = [(lam, polynomial_eval(seq, lam))
              for lam in args.lam or bnd.DEFAULT_ACTIVITIES]
    violations += bnd.check_partition_dominance(g.n, d, h, values)
    payload["violations"] = violations
    payload["partition_bounds"] = []
    for lam, p_exact in values:
        regular, almost = bnd.partition_upper_log2(g.n, d, h, lam)
        payload["partition_bounds"].append(
            {"lambda": str(lam), "regular_log2": regular,
             "almost_regular_log2": almost, "exact_value": str(p_exact)})
    _emit(args, payload,
          [f"bound table for {args.graph} (d = {d}); "
           f"violations: {len(violations)}", *violations],
          ("t", "lower_log2", "upper_log2", "exact_log2", "tags"),
          ((r.t, mp.nstr(r.lower_log2, 18), mp.nstr(r.upper_log2, 18),
            mp.nstr(r.exact_log2, 18), "|".join(r.tags)) for r in rows))
    return EXIT_INVARIANT if violations else EXIT_OK


def cmd_check(args) -> int:
    from . import seqshape
    g = graphs.parse_graph_spec(args.graph)
    seq = count_by_size(g)
    payload: dict = {"graph": args.graph, "property": args.property,
                     "alpha": seq.alpha}
    details = []
    if args.property == "bgs":
        try:
            rep = seqshape.check_property_bgs(
                seq, g.n // 2, args.beta, args.gamma, args.step)
        except ValueError as exc:
            raise ValueError(f"property check rejected: {exc}") from exc
        holds = rep.holds
        verdict = ("holds" if holds else "fails") + \
            f" for (beta={args.beta}, gamma={args.gamma}, s={args.step})"
        for rpt in (rep.increasing, rep.decreasing):
            payload[rpt.kind] = {
                "interval": [rpt.lo, rpt.hi],
                "holds": rpt.holds,
                "witness": list(rpt.witness) if rpt.witness else None,
            }
            wit = f", witness {rpt.witness}" if rpt.witness else ""
            details.append(f"  {rpt.kind:<10} [{rpt.lo}, {rpt.hi}] step {rpt.s}: "
                           f"{'holds' if rpt.holds else 'fails'}{wit}")
    else:
        if args.property == "unimodal":
            holds, witness = seqshape.is_unimodal(seq)
            verdict = "unimodal" if holds else f"not unimodal, witness {witness}"
        else:
            holds, witness = seqshape.check_final_third(seq)
            verdict = ("final third decreasing" if holds
                       else f"final third violated at {witness}")
        payload["witness"] = list(witness) if witness else None
    payload["holds"] = holds
    _emit(args, payload, [f"{args.graph}: {verdict}", *details])
    return EXIT_OK


def cmd_cube_structure(args) -> int:
    from . import cube
    a = cube.vertex_set(args.d, [int(x) for x in args.set.split(",")]
                        if args.set else [])
    stats = cube.structure_stats(a)
    verts = a.vertices()
    payload = {"d": args.d, "set": verts, **vars(stats)}
    _emit(args, payload,
          [f"d={args.d} A={verts}: size {stats.size}, "
           f"nbhd {stats.nbhd}, closure {stats.closure}, small {stats.small}, "
           f"comps {stats.comps}, max comp {stats.max_comp}"])
    return EXIT_OK


# Largest dimension cube-window takes; a larger d is refused before any
# work.  The time for one t grows about as d^2.5 at the slowest t measured,
# near 0.07 * 2^(d-1): 0.29 s at d = 2000, 0.86 s at 3000, 2.2 s at 4000
# and 4 s at 5000.  4000 is the largest d the window is studied at.
WINDOW_DIM_CAP = 4000


@_at_working_precision
def cmd_cube_window(args) -> int:
    import mpmath as mp
    from . import cube, cube_estimates as est, numerics
    cube._check_dim(args.d, cap=WINDOW_DIM_CAP)
    rows = [est.estimate_window(args.d, t, args.c_constant) for t in args.t]
    plain = []
    for r in rows:
        win = (f"window [{mp.nstr(r.e1, 10)}, {mp.nstr(r.e2, 10)}]"
               if r.e1 is not None and r.e2 is not None
               else f"window not applicable ({r.e1_reason or r.e2_reason}); "
                    "central value only")
        plain.append(f"d={r.d} t={r.t} [{r.tag}] central_log2 = "
                     f"{mp.nstr(r.central_log2, 12)}; {win}")
    payload = {"rows": [_fields(r, lam="lambda", tag="range") for r in rows]}
    _emit(args, payload, plain,
          ("d", "t", "range", "central_log2", "e1_log2", "e2_log2",
           "e1_applicable", "e2_applicable"),
          ((r.d, r.t, r.tag, mp.nstr(r.central_log2, 18),
            mp.nstr(numerics.log2(r.e1), 12) if r.e1 is not None else "",
            mp.nstr(numerics.log2(r.e2), 12) if r.e2 is not None else "",
            r.e1 is not None, r.e2 is not None) for r in rows))
    return EXIT_OK


@_at_working_precision
def cmd_transition(args) -> int:
    import mpmath as mp
    from . import cube, cube_estimates as est
    # d is capped at 20 here and at 15 by graphs.VERTEX_CAP; below that the
    # counting engine's work budget is the only limit
    cube._check_dim(args.d)
    half = 1 << (args.d - 1)
    for t in args.t or ():
        if not 0 <= t <= half:
            raise ValueError(f"t = {t} outside [0, 2^(d-1)]")
    seq = count_by_size(graphs.hypercube(args.d))
    rows = []
    for t in args.t or range(half + 1):
        gcoord = est.transition_g(args.d, t)
        ratio = est.transition_ratio_log2(args.d, t, it=seq[t])
        predicted = est.predicted_transition_limit(gcoord)
        rows.append({
            "d": args.d, "t": t,
            "g": _wire(gcoord),
            "ratio_log2": mp.nstr(ratio, 12),
            "predicted_limit": mp.nstr(predicted, 12),
        })
    _emit(args, {"rows": rows},
          [f"d={r['d']} t={r['t']} g={r['g']} ratio_log2={r['ratio_log2']} "
           f"predicted={r['predicted_limit']}" for r in rows],
          rows[0].keys(), (r.values() for r in rows))
    return EXIT_OK


def cmd_percolate(args) -> int:
    # run_experiment sets its own working precision
    from . import percolation
    summary = percolation.run_experiment(args.base, args.p, args.seed,
                                         args.trials, args.epsilon)
    payload = _fields(summary, records="per_trial")
    payload["per_trial"] = [vars(r) for r in summary.records]
    _emit(args, payload,
          [f"success rate {summary.success_rate} over {summary.trials} "
           f"trials (epsilon = {summary.epsilon}, d' = {summary.d_prime})"])
    return EXIT_OK


@_at_working_precision
def cmd_verify(args) -> int:
    from .verify import run_suite
    checks = []
    start = time.perf_counter()
    for name, ok, detail in run_suite(args.suite):
        end = time.perf_counter()
        checks.append({"name": name, "verdict": "PASS" if ok else "FAIL",
                       "detail": detail, "seconds": round(end - start, 6)})
        start = end
        if args.format == "plain":   # stream: the full suite takes seconds
            suffix = f" ({detail})" if detail else ""
            print(f"[{checks[-1]['verdict']}] {name}{suffix}")
    failures = sum(c["verdict"] == "FAIL" for c in checks)
    _emit(args, {"suite": args.suite, "checks": checks, "failures": failures},
          [f"{failures} failure(s)"],
          ("name", "verdict", "detail", "seconds"),
          (c.values() for c in checks))
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

    p = sub.add_parser("bounds", help="per-size bound table and exact "
                       "sandwich/domination checks for a regular bipartite "
                       "graph")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--lam", type=_fraction, action="append", default=[],
                   metavar="RATIONAL",
                   help="activity for the partition-function checks "
                   "(repeatable; default 1/4 1/2 1 2 4)")
    add_format(p)

    p = sub.add_parser("check", help="sequence shape verdicts")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--property", choices=("unimodal", "final-third", "bgs"),
                   required=True)
    p.add_argument("--beta", type=_fraction, default=Fraction(0))
    p.add_argument("--gamma", type=_fraction, default=Fraction(0))
    p.add_argument("--step", type=int, default=1, help="step size s for bgs")
    add_format(p)

    p = sub.add_parser("cube-structure", help="neighborhood, closure, "
                       "smallness and 2-components of a hypercube vertex set")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--set", default="", help="comma-separated vertex indices")
    add_format(p)

    p = sub.add_parser("cube-window", help="central estimate and error "
                       "window for hypercube counts")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--t", type=int, action="append", required=True,
                   help="set size (repeatable)")
    add_format(p)

    p = sub.add_parser("transition", help="ratio of exact counts to twice "
                       "the one-sided binomial, against the predicted limit")
    p.add_argument("--d", type=int, required=True, help="cube dimension")
    p.add_argument("--t", type=int, action="append", default=None,
                   help="set size (repeatable; default: all)")
    add_format(p)

    p = sub.add_parser("percolate", help="interval-property experiment on "
                       "seeded percolations of a regular bipartite base")
    p.add_argument("--base", required=True, help="regular bipartite base "
                   "graph spec, e.g. knn:16,16 or qd:5")
    p.add_argument("--p", type=_fraction, required=True,
                   help="edge retention probability (rational)")
    p.add_argument("--seed", type=int, default=0, help="stream seed")
    p.add_argument("--trials", type=int, default=100,
                   help="experiment trial count (default %(default)s)")
    p.add_argument("--epsilon", type=_fraction, default=Fraction(1, 10),
                   help="interval-property parameter (default 1/10)")
    add_format(p)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("small", "full"), default="small")
    add_format(p)

    return ap


# A value that argparse would take for an option: a "-" and then a digit or
# a point, as in "-1/2" (argparse knows only "-1" and "-0.5" for numbers).
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _joined_negative_values(argv: list[str]) -> list[str]:
    """argv with each "--flag -1/2" pair written as "--flag=-1/2", so that
    a negative value reaches its flag's type and the verb, which refuse it
    on one error line, and not argparse, which would print its usage text.
    Every long flag but --help takes a value, and no option starts with a
    digit or a point."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and not "--help".startswith(out[-1])
                and _NEGATIVE_VALUE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _refusals() -> tuple[type, ...]:
    """The exceptions main reports on one error line: ValueError, which
    GraphError and cube_estimates.NotApplicableError are, and an interval
    comparison left undecided, which only a verb that loaded numerics can
    raise."""
    numerics = sys.modules.get(f"{__package__}.numerics")
    return (ValueError,) + ((numerics.UndecidedComparison,) if numerics
                            else ())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import, and shared by every later call:
    # building it costs about 30 times as much as parsing one argv.  Parsing
    # leaves it unchanged, since each parse fills a fresh namespace.
    return build_parser()


def main(argv=None) -> int:
    # The verb runs without CPython's int-to-str limit (4300 digits by
    # default, from 3.10.7 on), since a count can be longer; the caller's
    # limit comes back afterwards.  A verb that evaluates mpmath sets its
    # own working precision (_at_working_precision).
    saved_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = _parser().parse_args(_joined_negative_values(
                sys.argv[1:] if argv is None else argv))
        finally:
            # --help leaves through argparse's SystemExit; its text is
            # flushed here so that a closed stdout is handled below too
            sys.stdout.flush()
        # The verb is looked up by name on every call, not stored in the
        # shared parser, so a rebinding of a module-level cmd_* function
        # (a test's monkeypatch, a tracing wrapper) takes effect.
        code = globals()["cmd_" + args.verb.replace("-", "_")](args)
        # Flushed here, so a reader that has gone shows up below and not in
        # the interpreter's flush at shutdown.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's signal docs advise pointing stdout at devnull, so that
        # the flush at shutdown cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        return EXIT_USAGE
    except _refusals() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if saved_digits is not None:
            sys.set_int_max_str_digits(saved_digits)


if __name__ == "__main__":
    sys.exit(main())
