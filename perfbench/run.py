#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. The benchmark's output is passed through; its
last line is the JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = [
        "cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"
    ]
    compile_ = [
        "cmake", "--build", build_dir, "--target", "e2e_bench", "-j",
        str(min(4, os.cpu_count() or 1))
    ]
    for cmd in ([] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
                else [configure]) + [compile_]:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
        str(args.trace), "--out-dir", out_dir
    ]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
