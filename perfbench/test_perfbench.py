#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (a few seconds per run).

    python3 perfbench/test_perfbench.py     # from the root of the repo

They build the benchmark through run.py first, so the first run also
compiles the engine.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GEN_LATE_BOUND_MS = 5.0  # kGenLateBoundMs in src/serve.h
SMOKE_SECONDS = "3"


def run(workload, seed, trace):
    """Runs one smoke-size benchmark.

    Returns (exit code, provenance line, result line).
    """
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace",
         str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(
            f"no result from {workload}: {done.stderr[-2000:]}")
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class SmokeRun(unittest.TestCase):
    def check_metrics(self, result, specs, nonzero):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for spec in specs:
            got = metrics[spec["name"]]
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(got["value"]), spec["name"])
            if nonzero:
                self.assertGreater(got["value"], 0, spec["name"])

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 7, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["end_to_end"], nonzero=True)
                code, _, result = run(workload, 7, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, SPEC["per_layer"], nonzero=False)
                layer = result["metrics"]
                self.assertEqual(layer["obs.trace_dropped"]["value"], 0)
                # The open-loop generator reports its lateness and stays
                # within its own bound.
                late = layer["server.gen_late_ms"]["value"]
                self.assertGreaterEqual(late, 0)
                self.assertLessEqual(late, GEN_LATE_BOUND_MS)

    def test_seed_determinism(self):
        workload = WORKLOADS[0]
        _, first, _ = run(workload, 11, 0)
        _, again, _ = run(workload, 11, 0)
        _, other, _ = run(workload, 12, 0)
        self.assertEqual(first["counts"], again["counts"])
        # Another seed gives other inputs, down to the interned ids the
        # engine hashes, and the same work.
        for key in ("input_hash", "input_id_hash"):
            self.assertNotEqual(first["counts"][key], other["counts"][key])
        for key in ("base_tuples", "derived_tuples", "seq_firings",
                    "seq_tuples", "seq_rounds"):
            self.assertEqual(first["counts"][key], other["counts"][key])
        for provenance in (first, other):
            self.assertIn("nproc", provenance["provenance"])
            self.assertIn("build_type", provenance["provenance"])


if __name__ == "__main__":
    unittest.main()
