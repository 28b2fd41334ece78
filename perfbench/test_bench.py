#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_bench.py

- Every core.*/db.*/cpu.* count and ratio (and every other count the traced
  run reports) repeats exactly between two runs of one seed: a drifting count
  is a determinism bug.
- The output gate passes and no experiment fails.
- The printed metrics are exactly those BENCHMARK.json declares, with the
  declared units, and every end-to-end metric is positive.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scifi_control", "scifi_batch", "swifi_archive")
EXACT_UNITS = ("count", "bytes", "ratio")


def run_bench(workload, seed, trace):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{result.returncode}: {result.stderr[-2000:]}")
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_clean(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run_bench(workload, 5, 1)
                second = run_bench(workload, 5, 1)
                self.assert_clean(first)
                self.assert_clean(second)
                exact = {name: m["value"] for name, m in first["metrics"].items()
                         if m["unit"] in EXACT_UNITS}
                self.assertIn("core.executed", exact)
                self.assertIn("db.wal_bytes", exact)
                self.assertIn("cpu.instret", exact)
                for name, value in exact.items():
                    self.assertEqual(second["metrics"][name]["value"], value,
                                     f"{name} drifted")

    def test_per_layer_metrics_match_spec(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload, 6, 1)
                self.assert_clean(result)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, declared)

    def test_end_to_end_metrics_match_spec(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload, 7, 0)
                self.assert_clean(result)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, declared)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
