#!/usr/bin/env python3
"""Builds and runs the castream pipeline benchmark from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The benchmark is compiled from source (perfbench/CMakeLists.txt, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then run
once. Its standard output is passed through; the last line is the JSON
result. With --trace 1 the spans go to <build>/traces/<workload>-<seed>.jsonl.
The exit code is the benchmark's: nonzero when the build fails, the
sources are missing, or the correctness gate fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", build_dir, "-j", "4"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/castream.h", "bench/workload.h",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            log(f"{needed} not found: run from the repository root")
            return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    if not build(root, build_dir):
        return 2

    cmd = [os.path.join(build_dir, "pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
