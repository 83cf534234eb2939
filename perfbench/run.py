#!/usr/bin/env python3
"""Builds and runs one ExpFinder end-to-end workload.

    python3 perfbench/run.py --workload team_search|hot_topics|churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the workload runner (Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls reuse that build. The runner is pinned to a
fixed set of cores and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "expfinder_workload"
MAX_CORES = 4


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def build(build_dir, jobs):
    """Configures (once) and builds the runner; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             # Compiler caches would write outside the checkout.
             "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs), "--target", TARGET],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["team_search", "hot_topics", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed must be >= 0 and --seconds in 1..600")
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"library sources not found ({needed} is missing under {ROOT})")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cores = sorted(os.sched_getaffinity(0))[:MAX_CORES]
    try:
        binary = build(build_dir, len(cores))
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(trace_dir, f"{args.workload}-{args.seed}")]
    print(f"# cores {','.join(map(str, cores))}", flush=True)
    try:
        proc = subprocess.run(cmd, preexec_fn=lambda: os.sched_setaffinity(0, cores),
                              timeout=170)
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish within 170 s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
