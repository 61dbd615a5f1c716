"""BENCHMARK.json keeps to the benchmark file format, and every per-layer
metric has its row in perfbench/interactions.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(*parts):
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


class ContractTests(unittest.TestCase):
    def setUp(self):
        self.bench = load("BENCHMARK.json")

    def test_keys_and_sizes(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 for c in b["command"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)

    def test_names_units_and_bounds(self):
        b = self.bench
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_every_per_layer_metric_has_its_interaction_row(self):
        rows = load("perfbench", "interactions.json")["metrics"]
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(set(rows), {m["name"] for m in self.bench["per_layer"]})
        for name, row in rows.items():
            for metric, workload in row["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)
            self.assertTrue(set(row["no_change"]) <= workloads, name)
            self.assertTrue(row["why"], name)


if __name__ == "__main__":
    unittest.main()
