#!/usr/bin/env python3
"""Count guard for the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Each workload runs twice, traced and at reduced size (--small), with one
seed: every count and served_permille must repeat exactly, the inputs must
be the same, and every output check must pass. A different seed must
change the inputs. The metric names must be the ones BENCHMARK.json lists.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build step)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# A count per workload that must be positive: the layer it names is on
# that workload's path.
EXERCISED = {
    "plan": ["oracle.solves", "dinic.augmenting_paths"],
    "batch": ["srv.cache_hit_share", "oracle.solves"],
    "serve": ["session.memo_hits", "session.fresh_evals"],
}


class CountGuard(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()

    def harness(self, workload, seed):
        cmd = [str(self.out / "perfbench_harness"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "1",
               "--small"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, workload):
        first = self.harness(workload, 7)
        again = self.harness(workload, 7)
        other = self.harness(workload, 8)
        for d in (first, again, other):
            self.assertTrue(d["correct"], d["problems"])
            self.assertEqual(d["failed"], 0)
        self.assertEqual(first["input_digest"], again["input_digest"])
        self.assertNotEqual(first["input_digest"], other["input_digest"])
        self.assertIn("served_permille", first["counts"])
        self.assertEqual(first["counts"], again["counts"])
        for name in EXERCISED[workload]:
            self.assertGreater(first["counts"][name], 0, name)
        self.assertEqual(set(first["end_to_end"]),
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(set(first["per_layer"]),
                         {m["name"] for m in SPEC["per_layer"]})

    def test_plan(self):
        self.check("plan")

    def test_batch(self):
        self.check("batch")

    def test_serve(self):
        self.check("serve")


if __name__ == "__main__":
    unittest.main()
