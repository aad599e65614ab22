"""Tests of the benchmark itself, kept apart from the program's test suite.

    python3 perfbench/selftest.py

They check that the printed metric names and units match BENCHMARK.json,
that traced and untraced passes give the same manifest hashes, and that an
exception injected into one operation raises failed_frac.  About a minute
on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

sys.path.insert(0, bench.SRC)

import workloads  # noqa: E402

WORK_ROOT = os.path.join(bench.WORK_ROOT, "selftest")


def setUpModule():
    os.makedirs(WORK_ROOT, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORK_ROOT, ignore_errors=True)


class PrintedMetrics(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        spec["command"]
                        + ["--workload", workload, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace)],
                        cwd=bench.ROOT, capture_output=True, text=True, timeout=180,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    units = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(units, expected[trace])


class TracedPass(unittest.TestCase):
    def test_traced_and_untraced_passes_hash_alike(self):
        result = workloads.run("bundled_batches", 0, 1, True, WORK_ROOT)
        untraced, traced = result["pass_hashes"][:2]
        self.assertEqual(len(untraced), 6)
        self.assertEqual(untraced, traced)
        self.assertEqual(result["failed"], 0)


class InjectedFailure(unittest.TestCase):
    def test_exception_in_one_operation_raises_failed_frac(self):
        work_dir = os.path.join(WORK_ROOT, "inject")
        workload, set_up = workloads.setup("spectrum_cli", 0, work_dir)
        workload.prepare()
        cli = workload.hd.cli
        original = cli.angle_spectrum
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("injected fault")
            return original(*args, **kwargs)

        cli.angle_spectrum = flaky
        try:
            tally, timings, tracer = workloads.measure(workload, 1, True)
        finally:
            cli.angle_spectrum = original
        self.assertEqual(tally.failed, 1)
        layers = workloads.per_layer_metrics(workload, tally, timings, tracer, set_up)
        self.assertAlmostEqual(layers["failed_frac"], 1 / tally.attempted)
        e2e = workloads.end_to_end_metrics(workload, tally, timings, set_up)
        self.assertLess(e2e["ok_frac"], 1.0)


if __name__ == "__main__":
    unittest.main()
