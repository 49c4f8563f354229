"""Tests of run.py: quartiles, compare verdicts, result-line validation and
the agreement of BENCHMARK.json with spec.json."""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_relative_spread(self):
        self.assertAlmostEqual(run.relative_spread([10.0] * 10), 0.0)
        self.assertEqual(run.relative_spread([0.0] * 10), 0.0)
        values = [8.0, 9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0, 12.0, 13.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / med)


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_same_numbers_are_no_worse(self):
        v, won = run.verdict(self.BASE, list(self.BASE), "lower", 0.1)
        self.assertEqual(v, "no worse")
        self.assertEqual(won, 0.0)  # ties count for neither side

    def test_all_zero_counts_are_no_worse(self):
        self.assertEqual(run.verdict([0.0] * 10, [0.0] * 10, "lower", 0.0)[0],
                         "no worse")

    def test_clear_gain_is_improved(self):
        change = [x * 0.8 for x in self.BASE]
        v, won = run.verdict(self.BASE, change, "lower", 0.1)
        self.assertEqual(v, "improved")
        self.assertEqual(won, 1.0)

    def test_gain_for_higher_is_better(self):
        change = [x * 1.2 for x in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "higher", 0.1)[0],
                         "improved")

    def test_regression_beyond_bound_is_worse(self):
        change = [x * 1.3 for x in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "lower", 0.1)[0],
                         "worse")

    def test_small_regression_within_bound_is_no_worse(self):
        change = [x * 1.05 for x in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "lower", 0.1)[0],
                         "no worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0,
                 130.0]
        change = [x * 1.02 for x in noisy]
        self.assertEqual(run.verdict(noisy, change, "lower", 0.1)[0],
                         "unresolved")

    def test_every_change_run_better_resolves_a_noisy_pair(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0,
                 130.0]
        change = [40.0, 45.0, 41.0, 44.0, 42.0, 43.0, 46.0, 47.0, 48.0, 49.0]
        self.assertIn(run.verdict(noisy, change, "lower", 0.1)[0],
                      ("improved", "no worse"))


class ResultLineTest(unittest.TestCase):
    BENCHMARK = {
        "end_to_end": [{"name": "a_ms"}, {"name": "setup_s"}],
        "per_layer": [{"name": "x.count"}],
    }

    def line(self, metrics, **extra):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": 1.0, "unit": "ms"} for k in metrics}}
        result.update(extra)
        return json.dumps(result)

    def test_accepts_exact_metric_sets(self):
        run.check_result_line(self.line(["a_ms", "setup_s"]), self.BENCHMARK, 0)
        run.check_result_line(self.line(["x.count"]), self.BENCHMARK, 1)

    def test_rejects_missing_or_extra_metrics(self):
        with self.assertRaises(ValueError):
            run.check_result_line(self.line(["a_ms"]), self.BENCHMARK, 0)
        with self.assertRaises(ValueError):
            run.check_result_line(self.line(["a_ms", "setup_s", "x.count"]),
                                  self.BENCHMARK, 0)

    def test_rejects_extra_keys(self):
        with self.assertRaises(ValueError):
            run.check_result_line(self.line(["x.count"], note="x"),
                                  self.BENCHMARK, 1)


class CombineTest(unittest.TestCase):
    def record(self, value, samples):
        return {"workload": "w", "seconds": 5, "trace": 0,
                "end_to_end": {"m": {"value": value, "unit": "ms",
                                     "samples": samples}},
                "workload_metrics": {}, "per_layer": {}}

    def test_median_of_sub_runs_and_summed_samples(self):
        merged = run.combine([self.record(3.0, 100), self.record(1.0, 110),
                              self.record(9.0, 120)])
        self.assertEqual(merged["end_to_end"]["m"]["value"], 3.0)
        self.assertEqual(merged["end_to_end"]["m"]["samples"], 330)
        self.assertEqual(merged["seconds"], 15)
        self.assertEqual(merged["sub_runs"], 3)


class SpecTest(unittest.TestCase):
    def test_spec_covers_benchmark_metrics(self):
        benchmark = run.load_json(run.BENCHMARK_JSON)
        spec = run.load_json(run.SPEC_JSON)
        layer_names = [m["name"] for m in benchmark["per_layer"]]
        self.assertEqual(layer_names, [m["name"] for m in spec["per_layer"]])
        for m in benchmark["end_to_end"]:
            self.assertIn(m["name"], spec["end_to_end"])
        workloads = [w["name"] for w in benchmark["workloads"]]
        for m in spec["workload_metrics"]:
            self.assertTrue(set(m["workloads"]) <= set(workloads), m["name"])
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
