#!/usr/bin/env python3
"""Builds and runs the netlist-to-verdict benchmark (see README.md).

    python3 verdict_bench/run.py --workload flow_gate --seed 1 --seconds 10 --trace 0
    python3 verdict_bench/run.py --selftest

Run from the repository root. The first call configures and builds the
repository's libraries and the benchmark into $CARGO_TARGET_DIR (default
.bench_build)/verdict_bench; later calls rebuild incrementally. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flow_gate", "retime_large", "equiv_pairs", "serve_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # A relative path keeps the serve socket's path short.
    return os.path.relpath(os.path.join(root, "verdict_bench"))


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("verdict_bench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "verdict_bench_selftest")]).returncode)

    command = [os.path.join(out, "verdict_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch-dir", out]
    if args.trace:
        command += ["--trace-file",
                    os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"verdict_bench: no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        sys.exit(f"verdict_bench: run failed (exit code {run.returncode})")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
