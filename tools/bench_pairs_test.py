#!/usr/bin/env python3
"""Tests of tools/bench_pairs.py on synthetic perfbench records.

No benchmark runs: the summary is checked on hand-made records, the run
order on a pass whose export and perfbench runs are replaced by stubs that
write records, and `summarize` end to end (with perfbench/run.py compare)
on record files in a temporary directory. Run directly or through ctest
(bench_pairs_test).
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_pairs.py")

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "capacity_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "turnaround_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def record(capacity, p50=1.0, raw_capacity=None):
    """A perfbench --out record holding every BENCHMARK.json end-to-end metric.

    With `raw_capacity` it also holds `raw.capacity_per_s`, as the ledger
    writes beside each metric it scales.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    e2e = {name: {"value": 1.0, "unit": "x", "base": 1} for name in names}
    e2e["capacity_per_s"]["value"] = capacity
    e2e["turnaround_p50_ms"]["value"] = p50
    if raw_capacity is not None:
        e2e["raw.capacity_per_s"] = {"value": raw_capacity, "unit": "1/s", "base": 1}
    return {"workload": "serve_images", "seed": 3, "scale": "full", "trace": 0,
            "context": {"nproc": 4, "compiler": "cc", "build_type": "RelWithDebInfo",
                        "workers": 4, "effective_parallelism": 1.0},
            "attempted": 10, "failed": 0, "mismatches": [], "end_to_end": e2e}


def rows_by_name(parent, change):
    return {r["name"]: r for r in bench_pairs.summarize(METRICS, parent, change)}


class SummaryTest(unittest.TestCase):
    def test_clear_gain_holds(self):
        parent = [record(100 + i) for i in range(10)]
        change = [record(130 + i) for i in range(10)]
        row = rows_by_name(parent, change)["capacity_per_s"]
        self.assertEqual(row["won"], 10)
        self.assertEqual(row["parent"][0], 104.5)
        self.assertEqual(row["change"][0], 134.5)
        self.assertTrue(row["holds"])

    def test_eight_of_ten_does_not_hold(self):
        parent = [record(100) for _ in range(10)]
        change = [record(150) for _ in range(8)] + [record(90) for _ in range(2)]
        row = rows_by_name(parent, change)["capacity_per_s"]
        self.assertEqual(row["won"], 8)
        self.assertFalse(row["holds"])

    def test_ties_count_for_neither_side(self):
        parent = [record(100, p50=2.0) for _ in range(10)]
        change = [record(100, p50=2.0) for _ in range(9)] + [record(101, p50=1.5)]
        rows = rows_by_name(parent, change)
        self.assertEqual(rows["capacity_per_s"]["won"], 1)
        self.assertEqual(rows["turnaround_p50_ms"]["won"], 1)  # lower is better

    def test_gain_inside_the_parent_spread_does_not_hold(self):
        # Every pair won, but by less than the parent's quartile distance.
        parent = [record(v) for v in (90, 95, 100, 105, 110, 90, 95, 100, 105, 110)]
        change = [record(v + 1) for v in (90, 95, 100, 105, 110, 90, 95, 100, 105, 110)]
        row = rows_by_name(parent, change)["capacity_per_s"]
        self.assertEqual(row["won"], 10)
        self.assertFalse(row["holds"])

    def test_fewer_than_ten_pairs_does_not_hold(self):
        row = rows_by_name([record(100)] * 9, [record(200)] * 9)["capacity_per_s"]
        self.assertEqual(row["won"], 9)
        self.assertFalse(row["holds"])

    def test_lower_is_better_metric(self):
        parent = [record(100, p50=2.0 + i / 100) for i in range(10)]
        change = [record(100, p50=1.0 + i / 100) for i in range(10)]
        self.assertTrue(rows_by_name(parent, change)["turnaround_p50_ms"]["holds"])


class RawRowTest(unittest.TestCase):
    def rows(self, parent, change):
        return bench_pairs.summarize(METRICS, parent, change)

    def test_raw_row_follows_its_metric_and_decides_nothing(self):
        parent = [record(100 + i, raw_capacity=90 + i) for i in range(10)]
        change = [record(130 + i, raw_capacity=120 + i) for i in range(10)]
        rows = self.rows(parent, change)
        self.assertEqual([r["name"] for r in rows],
                         ["capacity_per_s", "raw.capacity_per_s", "turnaround_p50_ms"])
        raw = rows[1]
        self.assertEqual(raw["parent"][0], 94.5)
        self.assertEqual(raw["change"][0], 124.5)
        self.assertEqual(raw["won"], 10)
        self.assertIsNone(raw["holds"])
        self.assertFalse(raw["disagree"])
        self.assertTrue(rows[0]["holds"])

    def test_opposite_majorities_disagree(self):
        # Scaled: the change wins 8 of 10. Raw: the parent wins 7 of 10.
        parent = [record(100, raw_capacity=100) for _ in range(10)]
        change = ([record(110, raw_capacity=90) for _ in range(7)] +
                  [record(110, raw_capacity=110)] + [record(90, raw_capacity=110)] * 2)
        rows = {r["name"]: r for r in self.rows(parent, change)}
        self.assertEqual(rows["capacity_per_s"]["won"], 8)
        self.assertEqual((rows["raw.capacity_per_s"]["won"], rows["raw.capacity_per_s"]["lost"]),
                         (3, 7))
        self.assertTrue(rows["raw.capacity_per_s"]["disagree"])
        self.assertFalse(rows["capacity_per_s"]["holds"])

    def test_no_majority_is_no_disagreement(self):
        # Raw splits 5 to 5, so only the scaled metric has a winner.
        parent = [record(100, raw_capacity=100) for _ in range(10)]
        change = [record(110, raw_capacity=90 + 20 * (i % 2)) for i in range(10)]
        rows = {r["name"]: r for r in self.rows(parent, change)}
        self.assertEqual(rows["raw.capacity_per_s"]["won"], 5)
        self.assertFalse(rows["raw.capacity_per_s"]["disagree"])

    def test_no_raw_row_unless_every_record_has_it(self):
        parent = [record(100, raw_capacity=100) for _ in range(10)]
        change = [record(110, raw_capacity=110) for _ in range(9)] + [record(110)]
        self.assertNotIn("raw.capacity_per_s", [r["name"] for r in self.rows(parent, change)])


class OrderTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        self.assertEqual(bench_pairs.pair_order(4), [("parent", "change"), ("change", "parent"),
                                                     ("parent", "change"), ("change", "parent")])

    def test_run_pairs_runs_in_that_order_and_saves_each_record(self):
        calls = []

        def fake_run_side(root, target, args, out):
            side = "change" if root == bench_pairs.ROOT else "parent"
            self.assertTrue(target.endswith("target-" + side))
            calls.append((side, None if out is None else os.path.basename(out), args.seconds))
            if out is not None:
                with open(out, "w") as f:
                    json.dump(record(100 if side == "parent" else 150), f)
            return 0

        saved = bench_pairs.export_parent, bench_pairs.run_side
        bench_pairs.export_parent = lambda rev, dest: "0" * 40
        bench_pairs.run_side = fake_run_side
        try:
            with tempfile.TemporaryDirectory() as out_dir, \
                    contextlib.redirect_stdout(io.StringIO()):
                args = types.SimpleNamespace(parent="HEAD", workload="serve_images", seed=3,
                                             pairs=4, seconds=20.0, out_dir=out_dir)
                self.assertEqual(bench_pairs.run_pairs(args), 0)
                left = sorted(os.listdir(out_dir))
        finally:
            bench_pairs.export_parent, bench_pairs.run_side = saved
        self.assertEqual(calls, [
            ("parent", None, 1), ("change", None, 1),  # untimed warm-up builds
            ("parent", "parent-0.json", 20.0), ("change", "change-0.json", 20.0),
            ("change", "change-1.json", 20.0), ("parent", "parent-1.json", 20.0),
            ("parent", "parent-2.json", 20.0), ("change", "change-2.json", 20.0),
            ("change", "change-3.json", 20.0), ("parent", "parent-3.json", 20.0),
        ])
        self.assertEqual(left, [f"{side}-{i}.json" for side in ("change", "parent")
                                for i in range(4)])


class SummarizeCommandTest(unittest.TestCase):
    def test_summarize_prints_the_rule_and_runs_compare(self):
        with tempfile.TemporaryDirectory() as out_dir:
            # Record 10 sorts after record 9, not after record 1.
            for i in range(11):
                for side, capacity in (("parent", 100 + i), ("change", 130 + i)):
                    # Raw capacity: the parent ahead in every pair.
                    raw = 200 - capacity
                    with open(os.path.join(out_dir, f"{side}-{i}.json"), "w") as f:
                        json.dump(record(capacity, raw_capacity=raw), f)
            self.assertEqual([os.path.basename(p) for p in
                              bench_pairs.records(out_dir, "parent")][-2:],
                             ["parent-9.json", "parent-10.json"])
            run = subprocess.run([sys.executable, SCRIPT, "summarize", "--out-dir", out_dir],
                                 capture_output=True, text=True)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        capacity = [line for line in run.stdout.splitlines()
                    if line.startswith("capacity_per_s")]
        self.assertEqual(len(capacity), 2, run.stdout)  # the summary row and compare's row
        self.assertIn("105 [102, 108]", capacity[0])
        self.assertIn("135 [132, 138]", capacity[0])
        self.assertIn("11/11", capacity[0])
        self.assertTrue(capacity[0].endswith("holds"), capacity[0])
        self.assertIn("within bound", capacity[1])
        raw = [line for line in run.stdout.splitlines() if line.startswith("raw.capacity_per_s")]
        self.assertEqual(len(raw), 1, run.stdout)
        self.assertIn("0/11", raw[0])
        self.assertTrue(raw[0].endswith("disagree"), raw[0])

    def test_summarize_without_records_fails(self):
        with tempfile.TemporaryDirectory() as out_dir:
            run = subprocess.run([sys.executable, SCRIPT, "summarize", "--out-dir", out_dir],
                                 capture_output=True, text=True)
        self.assertEqual(run.returncode, 2)
        self.assertIn("no records", run.stderr)


if __name__ == "__main__":
    unittest.main()
