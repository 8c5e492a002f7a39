#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--seed0 101]
        [--workloads a,b] [--out perfbench/steadiness.json]

Run from the repository root. For each set and each workload of
BENCHMARK.json it runs perfbench/run.py once per seed (set k uses seed0 +
1000k, +1, ...; untraced, with the file's run_seconds), then reports each
metric's median, quartiles (statistics.quantiles(values, n=4)) and
spread = (q3 - q1) / median next to its bound. With several sets it also
reports how much worse each metric's median is in a later set than in the
first. With --out it writes every run's values and the summaries.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    wall = time.monotonic() - start
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1]), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def flag(value, bound):
    """ok under a third of the bound, wide under the bound, OVER past it."""
    if bound is None:
        return ""
    return "ok" if value < bound / 3 else "wide" if value <= bound else "OVER"


def run_set(workloads, seeds, bench, bounds):
    report = {"seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            provenance, result, wall = run_once(workload, seed,
                                                bench["run_seconds"])
            runs.append({"seed": seed, "wall_s": wall,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: wall {wall:.1f} s, "
                  f"failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name] for r in runs])
            s["bound"] = bounds.get(name)
            summary[name] = s
            print(f"{workload:14s} {name:22s} median {s['median']:12.6g} "
                  f"spread {s['spread']:7.4f} bound {s['bound']} "
                  f"{flag(s['spread'], s['bound'])}")
        report["workloads"][workload] = {"provenance": provenance,
                                         "summary": summary, "runs": runs}
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    sets = []
    for k in range(args.sets):
        seed0 = args.seed0 + 1000 * k
        sets.append(run_set(workloads,
                            list(range(seed0, seed0 + args.runs)), bench,
                            bounds))
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "sets": sets}
    if len(sets) > 1:
        # How much worse a later set's median is than the first set's, as a
        # share of the first; 0 when no later set is worse.
        report["worse_than_first"] = {}
        for workload in workloads:
            first = sets[0]["workloads"][workload]["summary"]
            shifts = report["worse_than_first"][workload] = {}
            for name, s in first.items():
                worst = 0.0
                for later in sets[1:]:
                    m = later["workloads"][workload]["summary"][name]["median"]
                    shift = (m - s["median"]) / s["median"]
                    worst = max(worst, shift if lower[name] else -shift)
                shifts[name] = worst
                print(f"{workload:14s} {name:22s} worse by {worst:7.4f} "
                      f"bound {bounds[name]} {flag(worst, bounds[name])}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
