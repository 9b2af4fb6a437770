#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds perfbench/, runs the C++ unit tests (percentile helper, span self
times), and checks that the metrics the harness emits match BENCHMARK.json
by name, unit and order, and that run.py rejects results that do not.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_unit_tests(self):
        done = subprocess.run([os.path.join(run.BUILD, "perfbench_unit_tests")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_metric_tables_match_benchmark_json(self):
        out = subprocess.run([run.HARNESS, "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout.split("\n")
        emitted = {"end_to_end": [], "per_layer": []}
        for line in filter(None, out):
            mode, name, unit = line.split()
            emitted[mode].append((name, unit))
        for mode in ("end_to_end", "per_layer"):
            self.assertEqual(emitted[mode], run.metric_table(mode), mode)

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in spec()["workloads"]]
        done = subprocess.run([run.HARNESS, "--workload", "no_such_workload",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        source = open(os.path.join(run.HERE, "workloads.cpp")).read()
        for name in names:
            self.assertIn('{"%s", ' % name, source)

    def test_validate_rejects_wrong_metrics(self):
        table = run.metric_table("end_to_end")
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {n: {"value": 1.5, "unit": u} for n, u in table}}
        self.assertEqual(run.validate(good, "end_to_end"), [])

        missing = json.loads(json.dumps(good))
        del missing["metrics"][table[0][0]]
        self.assertTrue(run.validate(missing, "end_to_end"))

        extra = json.loads(json.dumps(good))
        extra["metrics"]["unlisted_s"] = {"value": 1.0, "unit": "s"}
        self.assertTrue(run.validate(extra, "end_to_end"))

        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"][table[0][0]]["unit"] = "ms"
        self.assertTrue(run.validate(wrong_unit, "end_to_end"))

        zero = json.loads(json.dumps(good))
        zero["metrics"][table[0][0]]["value"] = 0
        self.assertTrue(run.validate(zero, "end_to_end"))

        self.assertTrue(run.validate({"metrics": {}}, "end_to_end"))


if __name__ == "__main__":
    unittest.main()
