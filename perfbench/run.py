#!/usr/bin/env python3
"""Builds the lsens benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpch_acyclic --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr so that the binary's last
stdout line stays its JSON result. With --trace 1 the span list is written
to <build dir>/traces/<workload>-seed<seed>.jsonl. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_acyclic", "tpch_q3", "serve_tpch")
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "lsens_perfbench",
         "-j", "3"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "lsens_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    return check_metric_names(run.stdout, args.trace)


def check_metric_names(stdout, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    got = set(json.loads(lines[-1])["metrics"]) if lines else set()
    if got != expected:
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(got ^ expected)}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
