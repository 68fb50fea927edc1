"""Self-test of the benchmark at smoke size (a few seconds per run).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, emits exactly the
metrics ``BENCHMARK.json`` names with their units and a clean verdict
record; that a deliberately corrupted reference is counted as failed
operations; and that the benchmark refuses to run, without printing a
result, in a directory holding only itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vcd_check", "corpus_cache", "serve")


def bench(*extra, cwd=ROOT):
    """Run the benchmark; ``(exit status, last stdout line, stderr)``.

    The last line comes back parsed, or ``None`` when it is no JSON.
    """
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "5",
         "--seconds", "1", "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stderr


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
            cls.spec = json.load(stream)

    def assert_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        units = {entry["name"]: entry["unit"] for entry in declared}
        got = {name: value["unit"]
               for name, value in result["metrics"].items()}
        self.assertEqual(got, units)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_metric_emitted_with_clean_verdicts(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        for workload in WORKLOADS:
            for trace, declared in (("0", self.spec["end_to_end"]),
                                    ("1", self.spec["per_layer"])):
                if trace == "1" and workload != WORKLOADS[0]:
                    continue  # the traced run replays every workload
                with self.subTest(workload=workload, trace=trace):
                    status, result, err = bench("--workload", workload,
                                                "--trace", trace)
                    self.assertEqual(status, 0, err)
                    self.assert_metrics(result, declared)
                    self.assertTrue(result["correct"], err)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0, err)
                    if trace == "0":
                        for value in result["metrics"].values():
                            self.assertGreater(value["value"], 0)

    def test_corrupted_reference_counts_as_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                status, result, err = bench("--workload", workload,
                                            "--corrupt-reference")
                self.assertEqual(status, 0, err)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_refuses_to_run_without_the_sources(self):
        work_root = os.path.join(HERE, ".work")
        os.makedirs(work_root, exist_ok=True)
        lone = tempfile.mkdtemp(prefix="lone-", dir=work_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns(
                                ".work", "out", "__pycache__"))
            status, result, _ = bench("--workload", "vcd_check", cwd=lone)
            self.assertNotEqual(status, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
