#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny scale.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the harness through run.py first.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TINY = ["--scale", "0.02", "--seconds", "0.4"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(*args):
    code, lines, err = run(*args)
    return code, json.loads(lines[-1]), err


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, out, err = result(
                        "--workload", workload["name"], "--seed", "7",
                        "--trace", trace, *TINY)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(out["correct"], err)
                    self.assertEqual(out["failed"], 0, err)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"]
                           for name, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_each_workload_runs_its_own_layers(self):
        # A layer a workload does not run reports 0 with no samples.
        for workload, ran, absent in (
                ("port_churn", "ovsdb.transact_us", "p4.process_us"),
                ("mac_learning", "p4.process_us", "ovsdb.transact_us")):
            with self.subTest(workload=workload):
                code, out, err = result("--workload", workload, "--seed", "7",
                                        "--trace", "1", *TINY)
                self.assertEqual(code, 0, err)
                self.assertGreater(out["metrics"][ran]["value"], 0)
                self.assertEqual(out["metrics"][absent]["value"], 0)


class CorrectnessCheckTest(unittest.TestCase):
    def test_a_stray_entry_on_a_switch_fails_the_check(self):
        for workload in ("port_churn", "mac_learning"):
            with self.subTest(workload=workload):
                code, out, err = result("--workload", workload, "--seed", "7",
                                        "--trace", "0", "--plant-bad-entry",
                                        *TINY)
                self.assertNotEqual(code, 0)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)
                self.assertIn("sw0 Acl", err)

    def test_a_clean_run_passes_the_check(self):
        code, out, err = result("--workload", "bulk_config", "--seed", "7",
                                "--trace", "0", *TINY)
        self.assertEqual(code, 0, err)
        self.assertTrue(out["correct"])


class GeneratorTest(unittest.TestCase):
    def input_hash(self, workload, seed):
        code, lines, err = run("--workload", workload, "--seed", str(seed),
                               "--input-hash", "2000")
        self.assertEqual(code, 0, err)
        return lines[-1]

    def test_inputs_depend_only_on_the_seed(self):
        for name in ("port_churn", "bulk_config", "mac_learning"):
            with self.subTest(workload=name):
                first = self.input_hash(name, 11)
                self.assertEqual(first, self.input_hash(name, 11))
                self.assertNotEqual(first, self.input_hash(name, 12))


if __name__ == "__main__":
    unittest.main()
