#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

Each workload runs once clean, at its default and at its held-out seed, and
once with a planted fault in its first timed pass (--plant-fault): a flipped
alert for `online`, a truncated .fac file for `storage`, a perturbed digest
for `repro`. A clean run must report zero failed operations; a planted run
must report the failure, name the check, and set "correct" to false. Each
workload also runs traced: its span self times must add up to the traced
pass's wall time, and the storage run shows that a traced pass writes the
same file bytes as an untraced one.

usage (from the root of a checkout): python3 perfbench/test_checks.py
Builds the driver through run.py first if needed; takes a few minutes.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
HELD_OUT = {"repro": 7, "online": 11, "storage": 7}
# Per-layer times in seconds that are not span self times.
NOT_SPANS = {"traced_pass_s", "util.wall_4t_s"}


def run(workload, *extra, seed=None, trace="0"):
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seconds", "1", "--trace", trace, *extra]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


class CleanRuns(unittest.TestCase):
    def check_clean(self, workload, seed=None, trace="0"):
        result, report = run(workload, seed=seed, trace=trace)
        self.assertTrue(result["correct"], report)
        self.assertEqual(result["failed"], 0, report)
        self.assertGreater(result["attempted"], 0, report)
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        return result["metrics"]

    def test_default_seeds(self):
        for workload in HELD_OUT:
            with self.subTest(workload=workload):
                self.check_clean(workload)

    def test_held_out_seeds(self):
        for workload, seed in HELD_OUT.items():
            with self.subTest(workload=workload):
                self.check_clean(workload, seed=seed)

    def test_traced_breakdown_adds_up(self):
        for workload in HELD_OUT:
            with self.subTest(workload=workload):
                metrics = self.check_clean(workload, trace="1")
                spans = sum(m["value"] for name, m in metrics.items()
                            if m["unit"] == "s" and name not in NOT_SPANS)
                traced = metrics["traced_pass_s"]["value"]
                self.assertGreater(traced, 0.0)
                self.assertAlmostEqual(spans, traced, delta=1e-6)


class PlantedFaults(unittest.TestCase):
    def check_planted(self, workload, message):
        result, report = run(workload, "--plant-fault")
        self.assertFalse(result["correct"], report)
        self.assertGreaterEqual(result["failed"], 1, report)
        self.assertIn(message, report)

    def test_repro_perturbed_digest(self):
        self.check_planted("repro", "repro: output digest")

    def test_online_flipped_alert(self):
        self.check_planted("online",
                           "tenant 0: alert log differs from the first pass's")

    def test_storage_truncated_file(self):
        self.check_planted("storage", "check failed: storage:")


if __name__ == "__main__":
    unittest.main()
