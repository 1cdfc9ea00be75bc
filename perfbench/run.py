#!/usr/bin/env python3
"""Build and run the directory-service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (which compiles the service from ../src)
into .bench_build, then runs the driver. The driver's last stdout line is
the JSON result; everything else goes to stderr. Exits nonzero, without a
result, when the build fails or a correctness check or sizing guard fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target="perfbench_driver"):
    """Configure (once) and build `target`; returns its path or None."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return None
    return os.path.join(BUILD, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(
        BUILD, f"spans-{args.workload}-{args.seed}-trace{args.trace}.json")
    return subprocess.run([
        driver, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", spans,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
