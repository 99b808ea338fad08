#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 ivybench/test_ivybench.py

Comparator verdicts on hand-made result sets, seed -> inputs digest
determinism, the gate self-check (every gate trips on a wrong reference),
and BENCHMARK.json agreeing with the metrics the binary reports. The last
three build the benchmark first (ivybench/run.py's build step).
"""

import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

SPEC = {
    "latency_ms": {"unit": "ms", "better": "lower", "bound": 0.1},
    "rate": {"unit": "1/s", "better": "higher", "bound": 0.1},
    "layer_ms": {"unit": "ms", "better": "lower", "bound": None},
}


def runs(workload, metric, values, correct=True, failed=0):
    return [{"workload": workload, "seed": seed, "trace": 0,
             "result": {"correct": correct, "attempted": 100, "failed": failed,
                        "metrics": {metric: {"value": v, "unit": "ms"}}}}
            for seed, v in enumerate(values, start=1)]


def verdict_of(parent, change, metric="latency_ms"):
    out = io.StringIO()
    verdicts = compare.compare(runs("w", metric, parent), runs("w", metric, change), SPEC, out)
    return verdicts[("w", metric)], out.getvalue()


class ComparatorTest(unittest.TestCase):
    STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_improved_when_nine_of_ten_pairs_win_beyond_spread(self):
        v, text = verdict_of(self.STEADY, [x - 10 for x in self.STEADY])
        self.assertEqual(v, "improved")
        self.assertIn("won 10 of 10 pairs", text)
        self.assertIn("of base 100 ms", text)  # every ratio with its base

    def test_not_improved_when_gain_is_inside_the_spread(self):
        v, _ = verdict_of(self.STEADY, [x - 0.5 for x in self.STEADY])
        self.assertEqual(v, "within bound")

    def test_regressed_beyond_bound(self):
        v, _ = verdict_of(self.STEADY, [x * 1.2 for x in self.STEADY])
        self.assertEqual(v, "regressed")

    def test_within_bound(self):
        v, _ = verdict_of(self.STEADY, [x * 1.05 for x in self.STEADY])
        self.assertEqual(v, "within bound")

    def test_unresolved_when_spread_is_wider_than_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, _ = verdict_of(noisy, [x * 1.02 for x in reversed(noisy)])
        self.assertEqual(v, "unresolved")

    def test_wide_spread_still_improved_when_every_change_run_wins(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, _ = verdict_of(noisy, [x / 3 for x in noisy])
        self.assertEqual(v, "improved")

    def test_wide_spread_still_regressed_when_every_change_run_loses(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, _ = verdict_of(noisy, [x * 3 for x in noisy])
        self.assertEqual(v, "regressed")

    def test_higher_is_better(self):
        v, _ = verdict_of(self.STEADY, [x * 0.8 for x in self.STEADY], metric="rate")
        self.assertEqual(v, "regressed")
        v, _ = verdict_of(self.STEADY, [x * 1.2 for x in self.STEADY], metric="rate")
        self.assertEqual(v, "improved")

    def test_per_layer_metric_has_no_bound(self):
        v, _ = verdict_of(self.STEADY, [x * 1.5 for x in self.STEADY], metric="layer_ms")
        self.assertEqual(v, "worsened")
        v, _ = verdict_of(self.STEADY, [x * 1.01 for x in self.STEADY], metric="layer_ms")
        self.assertEqual(v, "no claim")

    def test_failures_are_compared_with_their_base(self):
        out = io.StringIO()
        parent = runs("w", "latency_ms", self.STEADY)
        change = runs("w", "latency_ms", self.STEADY)
        change[0]["result"]["failed"] = 3
        verdicts = compare.compare(parent, change, SPEC, out)
        self.assertEqual(verdicts[("w", "failed_frac")], "regressed")
        self.assertIn("(3 of 1000)", out.getvalue())

    def test_incorrect_runs_post_no_numbers(self):
        parent = runs("w", "latency_ms", self.STEADY)
        change = runs("w", "latency_ms", [1] * 10, correct=False)
        verdicts = compare.compare(parent, change, SPEC, io.StringIO())
        self.assertEqual(verdicts[("w", "failed_frac")], "regressed")
        self.assertNotIn(("w", "latency_ms"), verdicts)


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        out = subprocess.run([self.binary, "--digest", "--workload", workload, "--seed",
                              str(seed)], stdout=subprocess.PIPE, text=True, check=True)
        return out.stdout.strip()

    def test_seed_determines_the_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.digest(w, 3), self.digest(w, 3))
                self.assertNotEqual(self.digest(w, 3), self.digest(w, 4))

    def test_every_gate_can_fail(self):
        done = subprocess.run([self.binary, "--self-check"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertEqual(done.stdout.count("(gate tripped)"), 3, done.stdout)
        self.assertEqual(done.stdout.count("(gate passed)"), 3, done.stdout)
        self.assertEqual(done.stderr.count("GATE FAILED"), 3, done.stderr)

    def test_benchmark_json_lists_what_the_binary_reports(self):
        out = subprocess.run([self.binary, "--list-metrics"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        reported = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            reported[kind].append((name, unit))
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(reported[kind], [(m["name"], m["unit"]) for m in spec[kind]])

    def test_bad_arguments_exit_nonzero(self):
        done = subprocess.run([self.binary, "--workload", "nope", "--seed", "1"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
