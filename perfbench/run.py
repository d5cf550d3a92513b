#!/usr/bin/env python3
"""Layered benchmark entry point.

Builds the `perfbench` driver from this checkout's sources (CMake, into
.bench_build/perfbench at the checkout root) and runs one workload:

    python3 perfbench/run.py --workload fleet_small --seed 1 --seconds 25 --trace 0

The driver's last stdout line is the result JSON
({"correct", "attempted", "failed", "metrics"}); this script relays the
driver's output and exits non-zero when the build fails or no valid result
line appears.

Other modes:

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds 25]
        runs each workload N times (seeds 1..N) and prints, per metric, the
        median, the interquartile range as a share of the median, and every
        value.
    python3 perfbench/run.py --self-test
        checks that a corrupted image hash is counted as a failed request.

`view_20k` runs on request but is not one of BENCHMARK.json's workloads
(see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["fleet_small", "hwmodel_8k"]  # BENCHMARK.json's workloads
EXTRA_WORKLOADS = ["view_20k"]
RUN_TIMEOUT_S = 175


def build_env():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures on first use, then brings the driver up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no gaurast sources next to perfbench/")
    env = build_env()
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return BUILD / "perfbench"


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns (its stdout, the parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=build_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return e.stdout or "", None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.stdout, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.stdout, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return proc.stdout, None
    return proc.stdout, result


def steady(binary, runs, workloads, seconds):
    """Median and IQR share per metric over `runs` seeds, per workload."""
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            _, result = run_once(binary, workload, seed, seconds, 0)
            if result is None or not result["correct"]:
                sys.exit(f"perfbench: {workload} seed {seed} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({runs} runs, {seconds} s each)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<20} median {med:<14.6g} iqr/median {spread:.4f}  "
                  + " ".join(f"{v:.4g}" for v in vals))


def self_test(binary):
    """A corrupted hash must turn into a failed request and correct=false."""
    _, clean = run_once(binary, "fleet_small", 7, 1, 0)
    _, corrupt = run_once(binary, "fleet_small", 7, 1, 0, ["--corrupt-hash"])
    ok = (clean is not None and clean["correct"] and clean["failed"] == 0 and
          corrupt is not None and not corrupt["correct"] and
          corrupt["failed"] >= 1)
    print("self-test " + ("passed" if ok else "FAILED") +
          f": clean={clean and clean['failed']} corrupt={corrupt and corrupt['failed']}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.steady or args.self_test):
        parser.error("one of --workload, --steady or --self-test is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.steady:
        steady(binary, args.steady, args.workloads.split(","), args.seconds)
        return 0
    output, result = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        sys.stderr.write(output)
        sys.exit(f"perfbench: {args.workload} produced no valid result")
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
