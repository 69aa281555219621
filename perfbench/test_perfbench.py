#!/usr/bin/env python3
"""Tests of the benchmark itself, at reduced deck scale (about a minute).

Run from the repository root:

    python3 perfbench/test_perfbench.py

- every workload prints every metric named in BENCHMARK.json, with its
  unit, in both the untraced and the traced mode;
- a deliberately corrupted verdict or DC-solve residual makes every op
  fail, and the failures are counted; a residual that drifted past the
  CG tolerance but within its convergence criterion does not;
- two seeds produce different decks, and one seed the same decks.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SMOKE = ["--scale", "0.3", "--seconds", "0.5"]

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = run(*args)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, res, spec):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result("--workload", w, "--seed", "3", "--trace", "0", *SMOKE)
                self.check_metrics(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result("--workload", w, "--seed", "3", "--trace", "1", *SMOKE)
                self.check_metrics(res, SPEC["per_layer"])
                self.assertGreaterEqual(res["metrics"]["trace.coverage"]["value"], 0.95)


class FailedOps(unittest.TestCase):
    CASES = [
        ("signoff-pg2", "verdict"),
        ("signoff-pg2", "residual"),
        ("variation-pg1", "verdict"),
        ("eco-diff-swerv45", "residual"),
    ]

    def test_corruption_is_counted(self):
        for w, fault in self.CASES:
            with self.subTest(workload=w, fault=fault):
                res = result("--workload", w, "--inject", fault, *SMOKE)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])

    def test_drifted_residual_is_converged(self):
        # CG stops on its recurrence residual; the true residual it reports
        # may end slightly above the tolerance and still count as converged.
        res = result("--workload", "signoff-pg2", "--inject", "drift", *SMOKE)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)


class Decks(unittest.TestCase):
    def digest(self, workload, seed):
        proc = run("--workload", workload, "--seed", str(seed), "--deck-digest", "--scale", "0.3")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout.strip().splitlines()[-1]

    def test_seeds_give_different_decks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.digest(w, 1), self.digest(w, 2))
                self.assertEqual(self.digest(w, 1), self.digest(w, 1))


if __name__ == "__main__":
    unittest.main()
