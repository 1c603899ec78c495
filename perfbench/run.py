"""Benchmark of the stableseq CLI and library on three workloads.

    python3 perfbench/run.py --workload count --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Each workload run starts fresh processes: several that only
start up (import ``stableseq.cli`` and generate the inputs) to time set-up,
then one that runs the workload's fixed call list in passes for ``--seconds``
seconds and checks every output.  ``--workload all`` runs each in turn.

Every end-to-end time is scaled to the nominal host speed (the per-layer
span times of a traced run are not): it is multiplied by
``probe.NOMINAL_S`` over the time of the fixed reference loop of ``probe``
run next to it in the same process (just before each call; right after
set-up for a start-up time).  The host's speed drifts by 20 % and more over
seconds to minutes; the scaling takes that drift out and keeps every change
to the program.  The unscaled times and the probe times are printed beside
the metrics.

Prints every metric with its unit and sample count, the machine description,
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``).  ``--out FILE`` also
writes the full results with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probe
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170          # one workload run, set-up included, ends by then


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("STABLESEQ_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], cwd: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, env=_worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fresh_dir(parent: str) -> str:
    return tempfile.mkdtemp(prefix="w", dir=parent)


def machine() -> dict:
    import mpmath
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, tiny: bool = False) -> dict:
    common = ["--workload", workload, "--seed", str(seed)] + \
        (["--tiny"] if tiny else [])
    deadline = time.monotonic() + RUN_LIMIT_S
    outs = []          # (start, worker output) of every fresh process
    if not trace:
        for _ in range(SETUP_SAMPLES):
            start = time.monotonic()
            outs.append((start, _worker(common + ["--seconds", "0", "--setup-only"],
                                        _fresh_dir(workdir), deadline - start)))
    start = time.monotonic()
    res = _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))],
                  _fresh_dir(workdir), deadline - start)
    outs.append((start, res))
    raw_setups = [out["setup_end"] - start for start, out in outs]
    setups = [raw * probe.NOMINAL_S / out["setup_probe_s"]
              for raw, (_, out) in zip(raw_setups, outs)]
    lat_ms = [x * 1000 for lat in res["latencies"] for x in lat]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(res["walls"]), "s", len(res["walls"])),
        "call_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
        "call_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
                        "ms", len(lat_ms)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    raw_ms = [x * 1000 for lat in res["raw_latencies"] for x in lat]
    unscaled = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(sum(lat) for lat in res["raw_latencies"]),
        "call_p50_ms": statistics.median(raw_ms),
        "probe_ms": statistics.median(x * 1000 for p in res["probes"] for x in p),
    }
    failed = len(res["failures"])
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": res["attempted"], "failed": failed,
            "failed_frac": failed / res["attempted"],
            "failures": res["failures"][:20], "digest": res["digest"],
            "calls_per_pass": res["calls_per_pass"],
            "metrics": metrics, "unscaled": unscaled,
            "trace_metrics": res.get("trace"),
            "trace_missing": res.get("trace_missing", []),
            "samples": {"setup_s": setups, "raw_setup_s": raw_setups,
                        "setup_probe_s": [out["setup_probe_s"] for _, out in outs],
                        "walls_s": res["walls"],
                        "latencies_s": res["latencies"],
                        "raw_latencies_s": res["raw_latencies"],
                        "probes_s": res["probes"]}}


def report(r: dict) -> list[str]:
    name = r["workload"]
    lines = [f"# {name} seed {r['seed']}: {r['calls_per_pass']} calls per pass, "
             f"{r['attempted']} attempted, {r['failed']} failed, "
             f"digest {r['digest']}"]
    if r["trace"]:
        lines += [f"{name}.{k} = {v} {tracer.metric_unit(k)}" for k, v in r["trace_metrics"].items()]
        if r["trace_missing"]:
            lines.append(f"# not traced (gone from the program): "
                         f"{', '.join(r['trace_missing'])}")
    else:
        lines += [f"{name}.{k} = {v:.6g} {unit} (n={n})"
                  for k, (v, unit, n) in r["metrics"].items()]
        lines.append(f"{name}.failed_frac = {r['failed_frac']:.6g} "
                     f"(n={r['attempted']})")
        lines.append(f"# {name} unscaled: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in r["unscaled"].items()))
    lines += [f"# FAILED {f}" for f in r["failures"]]
    return lines


def result_line(results: list[dict]) -> dict:
    single = len(results) == 1
    metrics = {}
    for r in results:
        prefix = "" if single else r["workload"] + "."
        if r["trace"]:
            for k, v in r["trace_metrics"].items():
                metrics[prefix + k] = {"value": v, "unit": tracer.metric_unit(k)}
        else:
            for k, (v, unit, _) in r["metrics"].items():
                metrics[prefix + k] = {"value": v, "unit": unit}
    return {"correct": all(r["failed"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (for the benchmark's own tests)")
    ap.add_argument("--out", help="also write the full results as JSON here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stableseq", "cli.py")):
        print(f"error: no src/stableseq/cli.py under {ROOT}; run from a "
              "checkout of the program", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run", dir=work_parent)
    try:
        results = [run_one(n, args.seed, args.seconds, bool(args.trace),
                           workdir, args.tiny) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            os.rmdir(work_parent)
    desc = machine()
    for r in results:
        print("\n".join(report(r)))
    print("# machine: " + json.dumps(desc, sort_keys=True))
    line = result_line(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": desc, "seconds": args.seconds,
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
