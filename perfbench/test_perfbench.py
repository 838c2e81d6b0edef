#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py

Every workload runs at the tiny scale, untraced and traced, and must print
every metric BENCHMARK.json names with no failed operation. A wrong
expected fingerprint fold must turn every operation into a failure and
the exit code nonzero, and a directory without the library sources must
fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


class PerfbenchTest(unittest.TestCase):
    def check_workload(self, workload, trace, section):
        code, result = run("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--scale", "tiny")
        self.assertEqual(code, 0)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in SPEC[section]))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_workload(workload, 0, "end_to_end")
            with self.subTest(workload=workload, trace=1):
                self.check_workload(workload, 1, "per_layer")

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                _, result = run("--workload", workload, "--seconds", "1", "--scale", "tiny")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_wrong_fingerprint_fold_fails_every_operation(self):
        # A copy of the benchmark whose expected.json pins a wrong fold for
        # the default seed, reusing the build of this checkout.
        build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                  ".bench_build")))
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"))
            expected_path = os.path.join(tmp, "perfbench", "expected.json")
            expected = json.load(open(expected_path))
            expected["workloads"]["long_run"]["fingerprint_fold"] = "0000000000000000"
            json.dump(expected, open(expected_path, "w"))
            code, result = run("--workload", "long_run", "--seed", str(expected["default_seed"]),
                               "--seconds", "1", cwd=tmp, env=dict(os.environ,
                                                                    CARGO_TARGET_DIR=build))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "long_run", "--seconds", "1"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
