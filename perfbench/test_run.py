"""Tests of perfbench/run.py that need no build: configuration is loud.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
GOOD = ["--workload", "sim_cnn", "--seed", "1", "--seconds", "1",
        "--trace", "0"]


def run(args):
    return subprocess.run([sys.executable, str(RUN)] + args,
                          capture_output=True, text=True, cwd=ROOT)


class LoudConfiguration(unittest.TestCase):
    def assert_refused(self, args):
        p = run(args)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")  # no result line

    def test_unknown_option(self):
        self.assert_refused(GOOD + ["--bogus", "1"])

    def test_unknown_workload(self):
        self.assert_refused(["--workload", "sim_mlp"] + GOOD[2:])

    def test_missing_option(self):
        self.assert_refused(GOOD[:-2])

    def test_bad_values(self):
        self.assert_refused(GOOD[:-1] + ["2"])
        self.assert_refused(GOOD[:3] + ["-1"] + GOOD[4:])
        self.assert_refused(GOOD[:5] + ["0"] + GOOD[6:])
        self.assert_refused(GOOD[:5] + ["121"] + GOOD[6:])

    def test_no_smoke_option(self):
        self.assert_refused(GOOD + ["--smoke"])


class Declaration(unittest.TestCase):
    def test_benchmark_json_contract(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(max(m["bound"] for m in e2e.values()),
                         e2e["setup_s"]["bound"])
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class OutcomeRecords(unittest.TestCase):
    """Outcomes are compared within one driver binary, never across two."""

    def setUp(self):
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        self.run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.run)
        self.tmp = tempfile.TemporaryDirectory()
        self.run.OUTCOMES = Path(self.tmp.name) / "outcomes.json"

    def tearDown(self):
        self.tmp.cleanup()

    @staticmethod
    def result(digest):
        return {"workload": "sim_cnn",
                "provenance": {"simd_level": "avx2-fma"},
                "outcomes": {"4": {"digest": digest, "uploads": 1}}}

    def test_same_build_must_agree(self):
        self.assertEqual(self.run.check_outcomes(self.result("a"), "b1"), [])
        self.assertEqual(self.run.check_outcomes(self.result("a"), "b1"), [])
        self.assertEqual(
            len(self.run.check_outcomes(self.result("z"), "b1")), 1)

    def test_other_build_is_not_compared(self):
        self.assertEqual(self.run.check_outcomes(self.result("a"), "b1"), [])
        self.assertEqual(self.run.check_outcomes(self.result("z"), "b2"), [])


if __name__ == "__main__":
    unittest.main()
