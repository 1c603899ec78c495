"""Median, quartiles and spread of the end-to-end metrics over many runs.

    python3 perfbench/run.py --workload count --seed 1 --out r1.json  # ...
    python3 perfbench/summarize.py r*.json [--write perfbench/seed_results.json]

Reads the ``--out`` files of ``run.py``, groups the untraced runs by
workload and prints, for every end-to-end metric, the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  The first
traced run of each workload gives the per-layer numbers.  ``--write`` stores
it all in the layout of ``seed_results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths: list[str]) -> dict:
    end_to_end, per_layer, machine, seconds = {}, {}, None, None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        machine, seconds = data["machine"], data["seconds"]
        for r in data["results"]:
            if r["trace"]:
                per_layer.setdefault(r["workload"], r["trace_metrics"])
                continue
            for name, (value, unit, _) in r["metrics"].items():
                entry = end_to_end.setdefault(r["workload"], {}).setdefault(
                    name, {"unit": unit, "values": []})
                entry["values"].append(value)
    for metrics in end_to_end.values():
        for entry in metrics.values():
            values = entry["values"]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0],) * 3
            entry.update(median=statistics.median(values), q1=q1, q3=q3,
                         spread=(q3 - q1) / statistics.median(values))
    return {"machine": machine, "run_seconds": seconds,
            "end_to_end": end_to_end, "per_layer": per_layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", nargs="+", help="--out files of run.py")
    ap.add_argument("--write", help="store the summary here as JSON")
    ap.add_argument("--about", default="", help="a line on what was measured")
    args = ap.parse_args(argv)
    summary = summarize(args.results)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    ok = True
    for workload, metrics in sorted(summary["end_to_end"].items()):
        for name, e in metrics.items():
            bound = bounds.get(name)
            steady = bound is None or name == "setup_s" or e["spread"] <= bound / 3
            ok &= steady
            print(f"{workload}.{name}: median {e['median']:.6g} {e['unit']}, "
                  f"q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, spread {e['spread']:.3f} "
                  f"(bound {bound}, n={len(e['values'])})"
                  + ("" if steady else "  ABOVE A THIRD OF THE BOUND"))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({"about": args.about, **summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
