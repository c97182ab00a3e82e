#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload adapt_serve --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build (relative to
the current directory).  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  Exits non-zero when the build fails,
the workload fails its correctness gate, or it overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("adapt_serve", "tag_stream", "meta_train")
HERE = os.path.dirname(os.path.abspath(__file__))
# Past the measured seconds: set-up repeats, correctness gates and start-up.
SLACK_SECONDS = 120


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    # The benchmark sets its own thread budgets; keep ambient defaults serial.
    env["FEWNER_THREADS"] = "1"
    env["FEWNER_INTRAOP_THREADS"] = "1"
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    process = subprocess.Popen(command, env=env)
    try:
        return process.wait(timeout=args.seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
