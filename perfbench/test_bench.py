#!/usr/bin/env python3
"""Self-test of the egress benchmark: run from the repository root with

    python3 perfbench/test_bench.py

It builds the driver, then checks that a clean run passes its output check
and prints exactly the metrics BENCHMARK.json names, that one planted wrong
output is caught (non-zero exit, failed > 0), that the traced run closes its
ledger, and that compare mode gives the expected verdicts.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def drive(*extra, workload="managed_churn", trace=0, seconds=1):
    binary = run.build()
    assert binary is not None, "build failed"
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds",
         str(seconds), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class EgressBenchTest(unittest.TestCase):
    def test_clean_run_passes_and_prints_every_end_to_end_metric(self):
        rc, result = drive()
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in BENCH["end_to_end"]})
        for m in BENCH["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_planted_wrong_output_is_caught(self):
        # Stream packet 5000 falls in the first inline slice (the
        # managed_churn prefill is 4096 packets).
        rc, result = drive("--plant-fault", "5000")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_traced_run_prints_every_layer_metric_and_closes_the_ledger(self):
        rc, result = drive(trace=1, workload="table1_mix", seconds=2)
        self.assertEqual(rc, 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in BENCH["per_layer"]})
        for m in BENCH["per_layer"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        self.assertLessEqual(
            result["metrics"]["bench.ledger_gap_frac"]["value"], 0.10)

    def test_compare_verdicts(self):
        def write(directory, values):
            os.makedirs(directory, exist_ok=True)
            for seed, v in enumerate(values):
                metrics = {m["name"]: {"value": v, "unit": m["unit"]}
                           for m in BENCH["end_to_end"]}
                with open(os.path.join(directory, f"w{seed}.json"), "w") as f:
                    json.dump({"detail": {"workload": "managed_churn", "trace": 0,
                                          "fingerprint": {"seed": seed}},
                               "result": {"metrics": metrics}}, f)

        with tempfile.TemporaryDirectory() as tmp:
            parent = os.path.join(tmp, "parent")
            same = os.path.join(tmp, "same")
            slower = os.path.join(tmp, "slower")
            write(parent, [100 + i * 0.1 for i in range(10)])
            write(same, [100 + i * 0.1 for i in range(10)])
            write(slower, [200 + i * 0.1 for i in range(10)])
            self.assertEqual(run.compare(parent, same), 0)
            # Every metric doubles: the lower-is-better ones regress.
            self.assertEqual(run.compare(parent, slower), 1)
            self.assertEqual(
                run.verdict([100.0] * 10, [200.0] * 10, "higher", 0.1, 10, 10),
                "better")
            self.assertEqual(
                run.verdict([100.0] * 10, [200.0] * 10, "lower", 0.1, 0, 10),
                "worse")


if __name__ == "__main__":
    unittest.main()
