#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (8-node cells, two small fleet
timelines). Run from the repository root:

    python3 perfbench/test_run.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
traced counters repeat exactly, that a tampered reference document, a
deadline kill and a traced pass that diverges from the timed one each count
as a failure, and that the benchmark refuses to run without the simulator's
sources.
"""

import gzip
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
sys.path.insert(0, str(HERE))
import run  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT, workload="opus_512", seed=42, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def check_shape(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertGreaterEqual(res["attempted"], 1)

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = result(bench(workload=w))
                self.check_shape(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                if w != "fleet_churn":
                    # fleet_churn throws on some seeds today
                    # (KNOWN_DEFECTS.md); those count as failed, never as
                    # wrong output.
                    self.assertEqual(res["failed"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_every_per_layer_metric_is_emitted_and_counters_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = result(bench(workload=w, seed=7, trace=1))
                second = result(bench(workload=w, seed=7, trace=1))
                self.check_shape(first, SPEC["per_layer"])
                self.assertTrue(first["correct"])
                if w != "fleet_churn":
                    self.assertEqual(first["failed"], 0)
                for m in SPEC["per_layer"]:
                    if m["unit"] == "count":
                        self.assertEqual(first["metrics"][m["name"]],
                                         second["metrics"][m["name"]], m["name"])
                self.assertEqual(first["metrics"]["net.cluster.parked_at_end"]
                                 ["value"], 0)

    def test_tampered_reference_counts_as_a_failure(self):
        tampered = SCRATCH / "reference"
        shutil.rmtree(tampered, ignore_errors=True)
        shutil.copytree(HERE / "reference" / "tiny", tampered / "tiny")
        path = tampered / "tiny" / "rotor_512.jsonl.gz"
        with gzip.open(path, "rt") as f:
            lines = f.read().splitlines()
        doc = json.loads(lines[0])
        tampered_doc = doc.replace('"rotor_rotations":', '"rotor_rotations":1')
        self.assertNotEqual(tampered_doc, doc)
        lines[0] = json.dumps(tampered_doc)
        with gzip.open(path, "wt") as f:
            f.write("\n".join(lines) + "\n")

        res = result(bench("--reference", str(tampered), workload="rotor_512"))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        # Untampered, the same run passes.
        res = result(bench(workload="rotor_512"))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)

    def test_diverging_traced_pass_counts_as_a_failure(self):
        tally = run.Tally(None)
        timed = {"ok": True, "iteration_ns": [5, 6]}
        tally.check(0, {"ok": True, "iteration_ns": [5, 6]}, timed)
        self.assertEqual((tally.failed, tally.correct), (0, True))
        tally.check(0, {"ok": True, "iteration_ns": [5, 7]}, timed)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertFalse(tally.correct)

    def test_deadline_kill_counts_as_a_failure(self):
        done = bench("--deadline-scale", "1e-6", workload="fleet_churn")
        res = result(done)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("deadline", done.stderr)
        self.assertEqual(res["metrics"]["ok_frac"]["value"], 0)

    def test_bare_directory_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
