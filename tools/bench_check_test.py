#!/usr/bin/env python3
"""Tests of tools/bench_check.py on small hand-written result files.

Each case writes a baseline and google-benchmark-shaped result files into a
temporary directory, runs the checker as a subprocess, and asserts its
exit status: a planted drift, a threads:N mismatch and an engine-row
mismatch must fail the gate; a reference row that differs only in
sim_tlb_hits must pass; and `update` must refuse to drop a baselined
benchmark. Run directly or through ctest (bench_check_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_check.py")

PAGED = {"sim_cycles": 72568.0, "sim_page_walks": 3000.0, "sim_tlb_hits": 2997.0}
FLEET = {"sim_total_cycles": 7649480.0, "sim_fingerprint_fold": 1321392469.0}


def results(**benchmarks):
    """One result file's payload: {name: sim counters}."""
    return {
        "context": {"executable": "bench_selftest"},
        "benchmarks": [
            dict(name=name, run_type="iteration", **sim) for name, sim in benchmarks.items()
        ],
    }


def passing_results():
    """Every engine row and thread count agreeing with the baseline below."""
    rows = {}
    for suffix in ("", "_NoChain", "_NoBlockEngine", "_NoFastPath"):
        paged = dict(PAGED, sim_tlb_hits=0.0) if suffix == "_NoFastPath" else dict(PAGED)
        rows[f"BM_SumPaged{suffix}/iterations:20"] = paged
        for threads in (1, 4):
            rows[f"BM_FleetMixed{suffix}/threads:{threads}/iterations:5"] = dict(FLEET)
    return rows


BASELINE = {
    "comment": "bench_check self-test",
    "benchmarks": {
        "BM_SumPaged/iterations:20": PAGED,
        "BM_FleetMixed/threads:1/iterations:5": FLEET,
    },
}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", BASELINE)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_checker(self, command, rows):
        result = self.write("results.json", results(**rows))
        return subprocess.run(
            [sys.executable, CHECKER, command, "--baseline", self.baseline, result],
            capture_output=True,
            text=True,
        )

    def test_agreeing_results_pass(self):
        run = self.run_checker("check", passing_results())
        self.assertEqual(run.returncode, 0, run.stderr)

    def test_planted_drift_fails(self):
        rows = passing_results()
        rows["BM_SumPaged/iterations:20"]["sim_cycles"] += 1
        run = self.run_checker("check", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("sim_cycles drifted", run.stderr)

    def test_thread_count_mismatch_fails(self):
        # threads:4 is not baselined and its engine rows still agree: only
        # the thread-count invariance can catch it.
        rows = passing_results()
        for suffix in ("", "_NoChain", "_NoBlockEngine", "_NoFastPath"):
            rows[f"BM_FleetMixed{suffix}/threads:4/iterations:5"]["sim_total_cycles"] += 1
        run = self.run_checker("check", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("varies with thread count", run.stderr)

    def test_engine_row_mismatch_fails(self):
        # Not baselined: only the engine-row invariance can catch it.
        rows = passing_results()
        rows["BM_SumPaged_NoBlockEngine/iterations:20"]["sim_page_walks"] += 1
        run = self.run_checker("check", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("sim_page_walks varies with engine row", run.stderr)

    def test_any_engine_row_suffix_is_grouped(self):
        # A row the checker has never heard of is held to the same values.
        rows = passing_results()
        rows["BM_SumPaged_NoSharedDecode/iterations:20"] = dict(PAGED, sim_cycles=1.0)
        run = self.run_checker("check", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("sim_cycles varies with engine row", run.stderr)

    def test_reference_row_may_differ_only_in_tlb_hits(self):
        rows = passing_results()
        self.assertEqual(rows["BM_SumPaged_NoFastPath/iterations:20"]["sim_tlb_hits"], 0.0)
        self.assertEqual(self.run_checker("check", rows).returncode, 0)
        # The exemption is the reference row's alone.
        rows["BM_SumPaged_NoChain/iterations:20"]["sim_tlb_hits"] = 0.0
        run = self.run_checker("check", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("sim_tlb_hits varies with engine row", run.stderr)

    def test_update_refuses_to_drop_a_baselined_benchmark(self):
        rows = passing_results()
        del rows["BM_FleetMixed/threads:1/iterations:5"]
        run = self.run_checker("update", rows)
        self.assertEqual(run.returncode, 1, run.stdout)
        self.assertIn("BM_FleetMixed/threads:1/iterations:5", run.stderr)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f), BASELINE)

    def test_update_writes_every_result(self):
        rows = passing_results()
        run = self.run_checker("update", rows)
        self.assertEqual(run.returncode, 0, run.stderr)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f)["benchmarks"], rows)


if __name__ == "__main__":
    unittest.main()
