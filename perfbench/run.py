#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the egobw library and the perfbench
program into .bench_build/ (Release, the root build's own flags), generates
the seeded inputs and reference answers for (W, N, S) untimed, then runs the
timed program on those files. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
records the provenance (machine, build, threads, seeds).
--trace 1 reports the per-layer metrics from spans and writes the spans to
.bench_build/traces/. Workloads, metrics and their predicted links are in
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources in {ROOT} (need CMakeLists.txt and src/)")
    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ]
    with open(log, "w") as f:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if code != 0:
                fail(f"build failed (exit {code}); log in {log}")
    return out / "perfbench"


def generate(binary, workload, seed, seconds):
    """Writes the inputs of (workload, seed, seconds); returns the dir and
    the generator's summary (graph size, seeds, serving knobs). Inputs are
    regenerated on every run, so they always match the program built."""
    inputs = BUILD / "inputs" / workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    cmd = [str(binary), "gen", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(inputs)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=GEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("input generation timed out")
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"input generation failed (exit {r.returncode})")
    return inputs, json.loads(r.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_flags():
    cache = BUILD / "perfbench" / "CMakeCache.txt"
    wanted = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "CMAKE_CXX_FLAGS",
              "CMAKE_CXX_FLAGS_RELEASE")
    flags = {}
    for line in cache.read_text().splitlines():
        key = line.split(":", 1)[0]
        if key in wanted and "=" in line:
            flags[key] = line.split("=", 1)[1]
    return flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    inputs, summary = generate(binary, args.workload, args.seed, args.seconds)

    run_dir = BUILD / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    # Relative to the root: AF_UNIX paths are limited to 107 bytes.
    socket = Path(".bench_build", "run", f"{args.workload}-{os.getpid()}.sock")
    cmd = [str(binary), "run", "--workload", args.workload,
           "--inputs", str(inputs), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--socket", str(socket)]
    if args.trace:
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-s{args.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed run exceeded its time limit")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"timed run failed (exit {r.returncode})")
    result = json.loads(lines[-1])

    nproc = os.cpu_count() or 1
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": summary,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "engine_threads": min(4, nproc),
        "client_connections": nproc,
        "build": build_flags(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
