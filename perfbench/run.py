#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload poisson_cg --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the library sources of src/ plus the benchmark program
in perfbench/src) into .bench_build/ at the repository root on first use,
then runs one workload. The program's last stdout line is the JSON result;
build output goes to stderr. Exits non-zero if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "neon_perfbench")
WORKLOADS = ("poisson_cg", "lbm_cavity", "sim_dgx8", "fem_sparse")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
