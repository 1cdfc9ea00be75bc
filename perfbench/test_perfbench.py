#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the driver and its self-test, runs the self-test (percentile rule,
due-time latency, seeded schedule), checks that the driver's workloads and
metric names and units are exactly those of BENCHMARK.json, and makes one
short real run per output mode to check the emitted result against it.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build("perfbench_driver")
        cls.selftest = run.build("perfbench_selftest")
        assert cls.driver and cls.selftest, "build failed"

    def test_selftest(self):
        out = subprocess.run([self.selftest], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_names_match_benchmark_json(self):
        out = subprocess.run([self.driver, "--list"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
        listed = {"workload": [], "end_to_end": [], "per_layer": []}
        for line in filter(None, out):
            kind, *rest = line.split()
            listed[kind].append(rest)
        self.assertEqual([w for (w,) in listed["workload"]],
                         [w["name"] for w in SPEC["workloads"]])
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(listed[kind],
                             [[m["name"], m["unit"]] for m in SPEC[kind]], kind)

    def test_emitted_result(self):
        workload = SPEC["workloads"][0]["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                 workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            self.assertEqual(out.returncode, 0, out.stderr[-2000:])
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertIs(result["correct"], True)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in SPEC[kind]})

    def test_refuses_unknown_workload(self):
        out = subprocess.run([self.driver, "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
