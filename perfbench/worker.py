"""One workload run in a fresh interpreter.

Imports the program, generates the workload's inputs into the current
directory, then runs passes of the fixed call list, one call after the other
(a closed loop with one client), for ``--seconds`` seconds.  Before a call,
when at least ``PROBE_EVERY_S`` has passed since the last one, it runs the
reference loop of ``probe``; each call's time is also kept scaled by
``probe.NOMINAL_S`` over the latest probe time, its cost at the nominal host
speed.  Prints one JSON object with the samples; ``run.py`` turns them into
metrics.

With ``--setup-only`` it stops after the inputs exist and prints the clock
reading at that moment, so the parent can time the whole start-up.  Both
modes also print ``setup_probe_s``, the median of ``SETUP_PROBES`` probes run
right after set-up, to scale that start-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

_t_import = time.monotonic()
import stableseq.cli  # noqa: E402  (timed: the import is part of start-up)
_import_s = time.monotonic() - _t_import

import stableseq  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402

PROBE_EVERY_S = 0.05
SETUP_PROBES = 15


def setup_probe() -> float:
    return statistics.median(probe.probe() for _ in range(SETUP_PROBES))
import workloads  # noqa: E402


def run_call(call: workloads.Call, ctx: workloads.PassContext):
    """Run one call.  Returns (seconds, output text, error or None); the
    time covers the call and, for CLI calls, parsing its stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if call.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = stableseq.cli.main(list(call.argv))
            value = json.loads(out.getvalue()) if code == 0 else None
            text = out.getvalue()
        else:
            code = 0
            value = call.fn(ctx)
            text = repr(sorted(value.items()) if isinstance(value, dict) else value)
        elapsed = time.perf_counter() - start
    except (Exception, SystemExit) as exc:  # a failed call, not a failed run
        return time.perf_counter() - start, "", f"{type(exc).__name__}: {exc}"
    if code != 0:
        return elapsed, text, f"exit {code}: {err.getvalue().strip()[:200]}"
    try:
        error = call.check(value)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        error = f"malformed output: {type(exc).__name__}: {exc}"
    return elapsed, text, error


def run_pass(calls, scratch_root: str):
    """One pass over the call list with a fresh scratch directory.  Returns
    (per-call seconds, the same scaled to the nominal probe speed, probe
    seconds, failure messages, sha256 of all outputs)."""
    scratch = os.path.join(scratch_root, "pass")
    os.makedirs(scratch)
    ctx = workloads.PassContext(stableseq, scratch)
    digest = hashlib.sha256()
    latencies, scaled, probes, failures = [], [], [], []
    last_probe = -PROBE_EVERY_S
    try:
        for call in calls:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe.probe())
                last_probe = time.perf_counter()
            elapsed, text, error = run_call(call, ctx)
            latencies.append(elapsed)
            scaled.append(elapsed * probe.NOMINAL_S / probes[-1])
            digest.update(f"{call.label}\0{text}\0".encode())
            if error is not None:
                failures.append(f"{call.label}: {error}")
    finally:
        shutil.rmtree(scratch)
    return latencies, scaled, probes, failures, digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Build the inputs in the current directory and run passes while
    another one fits in ``seconds`` (at least one; with tracing, at least
    one untraced and one traced, alternating)."""
    calls = workloads.build(name, seed, tiny)
    setup_end = time.monotonic()
    setup_probe_s = setup_probe()
    scratch_root = os.getcwd()
    walls, traced_walls, latencies, failures, digests, summaries = \
        [], [], [], [], set(), []
    raw_latencies, probes = [], []
    missing: list[str] = []
    deadline = time.monotonic() + seconds
    while True:
        pass_start = time.monotonic()
        traced = trace and len(walls) > len(traced_walls)
        tr = tracer.Tracer() if traced else None
        if tr:
            tr.install()
        try:
            raw, lat, pass_probes, fails, digest = run_pass(calls, scratch_root)
        finally:
            if tr:
                tr.uninstall()
        (traced_walls if traced else walls).append(sum(lat))
        latencies.append(lat)
        raw_latencies.append(raw)
        probes.append(pass_probes)
        failures.extend(fails)
        digests.add(digest)
        if tr:
            summaries.append(tr.summary())
            missing = tr.missing
        # stop before a pass that would end after the deadline
        now = time.monotonic()
        if now + (now - pass_start) > deadline and (not trace or traced_walls):
            break
    if len(digests) != 1:
        failures.append("outputs differ between passes of one run")
    result = {
        "setup_end": setup_end,
        "setup_probe_s": setup_probe_s,
        "calls_per_pass": len(calls),
        "walls": walls,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "probes": probes,
        "attempted": sum(map(len, latencies)),
        "failures": failures,
        "digest": digests.pop() if len(digests) == 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["trace"] = _trace_metrics(summaries, walls, traced_walls, failures)
        result["trace_missing"] = missing
    return result


def _trace_metrics(summaries, walls, traced_walls, failures) -> dict:
    """Counts from the first traced pass (they must repeat exactly on every
    traced pass); times as medians over the traced passes."""
    first = summaries[0]
    out = {}
    for key in first:
        if tracer.metric_unit(key) == "s":
            out[key] = statistics.median(s[key] for s in summaries)
        else:
            out[key] = first[key]
            if any(s[key] != first[key] for s in summaries):
                failures.append(f"traced count {key} differs between passes")
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    out["setup.import_s"] = _import_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the benchmark's own tests)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.tiny)
        setup_end = time.monotonic()
        print(json.dumps({"setup_end": setup_end, "setup_probe_s": setup_probe()}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
