#!/usr/bin/env python3
"""End-to-end package-query benchmark: build pb_perfbench, run a workload.

Run from the root of a PackageBuilder checkout:

    python3 perfbench/run.py --workload meal-plan --seed 1 --seconds 20 --trace 0

builds perfbench/ (which builds the library from ../CMakeLists.txt) in
.bench_build/perfbench as a Release build, then runs it. Build output
goes to stderr; the load generator's output goes to stdout, and its last
line is the result object. --trace 1 runs the traced serial replay and
reports the per-layer metrics instead of the end-to-end ones. Without
--workload, all three workloads (meal-plan, lineitem-exact, htap-append)
run once, one after another.

Steadiness mode runs each workload N times, with seeds seed ..
seed+N-1, and prints every metric's median, quartiles and spread
(interquartile distance over the median) against the bound BENCHMARK.json
gives it:

    python3 perfbench/run.py --steadiness 10 [--workload NAME ...]
        [--seconds S] [--seed N] [--trace 0|1]

A spread above a third of the bound is marked "WIDE", above the bound
"OVER". Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "pb_perfbench"
RUN_TIMEOUT_S = 175
# meal-plan runs here but is not in BENCHMARK.json: its figures follow the
# host's scheduling noise (see README.md).
ALL_WORKLOADS = ["meal-plan", "lineitem-exact", "htap-append"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no PackageBuilder sources (CMakeLists.txt, src/) under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace):
    """Runs pb_perfbench once; returns (exit code, stdout text)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def benchmark_spec():
    """(end-to-end bounds by metric, workload names) from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}, []
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    workloads = [w["name"] for w in spec.get("workloads", [])]
    return bounds, workloads


def steadiness(args):
    bounds, listed = benchmark_spec()
    workloads = args.workload or listed
    if not workloads:
        fail("no workloads given and none listed in BENCHMARK.json")
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.steadiness):
            seed = args.seed + i
            code, out = run_bench(workload, seed, args.seconds, args.trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                fail(f"{workload} seed {seed} exited {code}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"  {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.steadiness} runs, seeds "
              f"{args.seed}..{args.seed + args.steadiness - 1}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                mark = ("OVER" if spread > bound
                        else "WIDE" if spread > bound / 3 else "ok")
            print(f"  {name:36s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.4f}  "
                  f"bound {bound if bound is not None else '-'}  {mark}")
            print("      runs: " + " ".join(f"{x:.5g}" for x in v))
    print(f"worst spread/bound: {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0,
                        help="runs per workload (steadiness mode)")
    args = parser.parse_args()
    if args.steadiness and args.steadiness < 2:
        fail("--steadiness needs at least 2 runs")

    build()
    if args.steadiness:
        steadiness(args)
        return
    worst = 0
    for workload in args.workload or ALL_WORKLOADS:
        code, out = run_bench(workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
