#!/usr/bin/env python3
"""Self-test of the host-cost benchmark: every workload at toy scale.

    python3 perfbench/test_perfbench.py

Builds hostbench if needed, then for each workload checks that
  - the traced run's FleetReport digests (the plain call, the split call
    and the one-worker replay) are all equal,
  - run.py reports a correct result in both modes, with exactly the
    metrics BENCHMARK.json declares for that mode,
  - every metric name hostbench emits is declared in BENCHMARK.json,
  - every metric name matches [A-Za-z0-9_.-]+.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 5


class ToyScale(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_json(run.SPEC)
        cls.modes = {trace: {m["name"] for m in cls.spec[key]}
                     for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def run_py(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"),
             "--workload", workload, "--seed", str(SEED), "--seconds", "0",
             "--trace", str(trace), "--scale", "toy"],
            cwd=run.REPO, stdout=subprocess.PIPE, text=True,
            timeout=run.RUN_TIMEOUT_S)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_declared_names_are_well_formed(self):
        for names in self.modes.values():
            for name in names:
                self.assertTrue(NAME.fullmatch(name), name)

    def test_traced_split_matches_plain_run(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                raw = run.hostbench(workload, SEED, 0, True, "toy")
                self.assertEqual(len(raw["digests"]),
                                 3 * len(raw["metrics"]))
                self.assertEqual(len(set(raw["digests"])), 1, raw["digests"])
                for name in raw["metrics"][0]:
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertIn(name, self.modes[1])

    def test_results_are_correct_and_declared(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_py(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     self.modes[trace])


if __name__ == "__main__":
    unittest.main()
