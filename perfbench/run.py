#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload replay|sessions|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release tree in .bench_build/ (a minute or two); later runs only re-check
it. Build output goes to stderr.

The measurement runs in PROCESSES separate processes of S / PROCESSES
seconds each, on the same inputs. A process's speed varies with where its
memory lands and with what else the machine runs at that moment, so the
reported value of every metric is the median over the processes; each
process also sets up once, which makes setup_s a median of set-ups. Each
process's own report is printed, then the combined metrics, then as the
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 when every process ran and every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROCESSES = 3


def build():
    """Configures (once) and builds the perfbench target; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "sessions", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def main():
    args = parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # The library reads a few SDB_* variables (kernel tier, checksum tier,
    # redo workers, caches); the benchmark runs with none of them set, so
    # every run measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDB_")}
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES),
               "--trace", str(args.trace)]

    results = []
    exit_code = 0
    for i in range(PROCESSES):
        print(f"=== process {i + 1} of {PROCESSES}", flush=True)
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode not in (0, 1) or result is None:
            print(f"perfbench: process {i + 1} failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        exit_code |= proc.returncode
        results.append(result)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(f"\n=== median of {PROCESSES} processes")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}")
    print(json.dumps(combined), flush=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
