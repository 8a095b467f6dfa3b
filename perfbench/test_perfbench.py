#!/usr/bin/env python3
"""The benchmark's own test. Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py

It runs every workload once untraced and once traced (short runs), checks
that every metric BENCHMARK.json names is reported with its unit and that
every job passed its check, and runs the traced dist_faults workload a
second time with the same seed to check that the exact counts repeat bit
for bit. It takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

SECONDS = "2"
SEED = "1"  # the default seed; 2 is held out for claims (METRICS.md)
EXACT_COUNTS = ("ckpt.commits", "ckpt.bytes_written", "dist.restores",
                "dist.respawns", "dist.reconstructions", "dist.escalations")


def run(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", seed, "--seconds", SECONDS,
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_every_workload_reports_every_metric(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_result(run(w["name"], 0), self.spec["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(run(w["name"], 1), self.spec["per_layer"])

    def test_exact_counts_repeat_for_a_seed(self):
        first = run("dist_faults", 1)["metrics"]
        second = run("dist_faults", 1)["metrics"]
        for name in EXACT_COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
            self.assertEqual(first[name]["value"],
                             int(first[name]["value"]), name)


if __name__ == "__main__":
    unittest.main()
