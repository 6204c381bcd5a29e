#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs every workload at smoke
size untraced and traced, the checks' self-test (each doctored outcome must
trip its check), and the contract of the printed result.
"""
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build-and-run script)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out" / "tests"


def binary() -> pathlib.Path:
    directory = run.build_dir()
    if not run.build(directory):
        raise RuntimeError("benchmark build failed")
    return directory / "perfbench"


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = binary()

    def run_workload(self, workload, trace, seed=7):
        result = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--smoke",
             "--out-dir", str(OUT)],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        return result.stdout.strip().splitlines()

    def check_result(self, line, specs):
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [spec["name"] for spec in specs])
        for spec in specs:
            metric = metrics[spec["name"]]
            self.assertRegex(spec["name"], NAME)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], spec["unit"])
            self.assertRegex(metric["unit"], UNIT)
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])
        return metrics

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                lines = self.run_workload(workload["name"], 0)
                metrics = self.check_result(lines[-1], SPEC["end_to_end"])
                for spec in SPEC["end_to_end"]:
                    self.assertGreater(metrics[spec["name"]]["value"], 0,
                                       spec["name"])
                self.assertTrue(any(l.startswith("# host {") for l in lines))

    def test_every_workload_traced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                lines = self.run_workload(workload["name"], 1)
                self.check_result(lines[-1], SPEC["per_layer"])
                self.assertTrue(any(l.startswith("per-layer self time")
                                    for l in lines))
                spans = OUT / f"{workload['name']}-seed7-trace1.spans.json"
                self.assertTrue(json.loads(spans.read_text())["traceEvents"])

    def test_same_seed_same_outcome(self):
        digests = set()
        for _ in range(2):
            lines = self.run_workload("federation_day", 0, seed=3)
            digests.update(l for l in lines if l.startswith("# outcome"))
        self.assertEqual(len(digests), 1)

    def test_repetition_count_is_fixed_by_arguments(self):
        # 4 s at analysis_cluster's nominal 2 s per repetition: two timed
        # repetitions, although each smoke repetition takes far less.
        result = subprocess.run(
            [str(self.binary), "--workload", "analysis_cluster", "--seed",
             "7", "--seconds", "4", "--trace", "0", "--smoke",
             "--out-dir", str(OUT)],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("# 1 warm-up + 2 untraced + 0 traced repetitions",
                      result.stdout)

    def test_doctored_outcomes_trip_their_checks(self):
        result = subprocess.run([str(self.binary), "--selftest"],
                                capture_output=True, text=True, timeout=60)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("selftest ok", result.stdout)

    def test_bad_arguments_are_refused(self):
        for argv in (["--workload", "nope"], ["--workload", "ingest_archive",
                                              "--trace", "2"]):
            result = subprocess.run([str(self.binary), *argv],
                                    capture_output=True, text=True)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout, "")

    def test_spec_names_and_units(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            names = [entry["name"] for entry in SPEC[group]]
            self.assertEqual(len(names), len(set(names)))
            for name in names:
                self.assertRegex(name, NAME)
        for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(spec["unit"], UNIT)
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])

    def test_fails_without_library_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "ingest_archive", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
