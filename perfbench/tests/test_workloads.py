"""Self-tests that build and run the harness (a few minutes; the first run
builds the ppd libraries). Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402
import stats  # noqa: E402

# Never used while the benchmark was tuned; its digests are recorded.
HELD_OUT_SEED = 7919


class WorkloadTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.build(ROOT)

    def one_pass(self, *argv):
        _, raw = run.run_binary(self.binary, list(argv) + ["--passes", "1"])
        return raw

    def test_paper_coverage_digest_is_the_same_at_one_and_all_threads(self):
        digests = {}
        for threads in (1, os.cpu_count() or 1):
            raw = self.one_pass("--workload", "paper_coverage", "--seed", "3",
                                "--reduced", "--threads", str(threads))
            acc = raw["accounting"]
            self.assertEqual((acc["calls_failed"], acc["checks_failed"]), (0, 0),
                             acc["problems"])
            digests[threads] = raw["passes"][0]["digest"]
        self.assertEqual(len(set(digests.values())), 1, digests)

    def test_quarantined_samples_count_as_failures(self):
        raw = self.one_pass("--workload", "paper_coverage", "--seed", "3", "--reduced",
                            "--fault-plan", "seed=13,item=0.25")
        acc = raw["accounting"]
        # The harness reads the sweeps' results; the program counts the
        # same samples on its own.
        self.assertGreater(acc["quarantined"], 0)
        self.assertEqual(acc["quarantined"], raw["passes"][0]["counters"]["resil.quarantined"])
        self.assertEqual(acc["calls_failed"], 0, acc["problems"])
        _, failed, frac = stats.fail_frac(acc)
        self.assertEqual(failed, acc["quarantined"])
        self.assertGreater(frac, 0.0)

    def test_busy_replies_count_as_failed_queries(self):
        # At an in-flight ceiling of 1 the shedding watermark is 0, so the
        # server refuses every coverage and rmin query: each client's fresh
        # one and its repeat, 8 in a pass.
        raw = self.one_pass("--workload", "served_mix", "--seed", "3",
                            "--max-inflight", "1")
        acc = raw["accounting"]
        refused = [op for op in raw["ops"]
                   if op[0] in ("net.query.coverage", "net.query.rmin")]
        self.assertEqual(len(refused), 8)
        self.assertFalse(any(op[2] for op in refused))
        self.assertGreaterEqual(acc["busy"], 8)
        self.assertGreaterEqual(acc["calls_failed"], acc["busy"])
        _, failed, _ = stats.fail_frac(acc)
        self.assertGreaterEqual(failed, acc["busy"])

    def test_held_out_seed_passes_every_check(self):
        recorded = run.load_digests()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertIn(str(HELD_OUT_SEED), recorded[workload])
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                     "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=300)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"], proc.stdout[-2000:])
                self.assertEqual(result["failed"], 0)
                self.assertIn("(recorded)", lines[0])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreaterEqual(metrics["latency_tail_ms"],
                                        metrics["latency_p50_ms"])


if __name__ == "__main__":
    unittest.main()
