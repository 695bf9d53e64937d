#!/usr/bin/env python3
"""Build and run the InSURE end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: plant_10k_night, plant_1k_day, campaign_paper, twin_live.
The first call configures and compiles perfbench/ (which compiles the
simulator from src/) in Release mode under .bench_build/; later calls
only rebuild what changed. The benchmark's own stdout is passed through:
its last line is the JSON result. Build output goes to stderr. Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures --seconds of work plus set-up and checks; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the benchmark binary."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join("perfbench", "reference.txt"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
