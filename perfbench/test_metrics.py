#!/usr/bin/env python3
"""Self-test of the benchmark's metric math: python3 perfbench/test_metrics.py"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as mx  # noqa: E402
import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_nearest_rank_is_an_observed_sample(self):
        values = [float(v) for v in range(1, 1001)]  # 1..1000
        self.assertEqual(mx.quantile(values, 0.5), 500.0)
        self.assertEqual(mx.quantile(values, 0.99), 990.0)
        # Order of the input does not matter.
        self.assertEqual(mx.quantile(list(reversed(values)), 0.99), 990.0)

    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly 10 beyond it: allowed.
        mx.quantile(list(range(1000)), 0.99)
        # p99 of 999 samples has 9 beyond it: refused, not extrapolated.
        with self.assertRaises(mx.TooFewSamples):
            mx.quantile(list(range(999)), 0.99)
        # The median needs 10 beyond too: 20 samples pass, 19 do not.
        self.assertEqual(mx.quantile(list(range(20)), 0.5), 9)
        with self.assertRaises(mx.TooFewSamples):
            mx.quantile(list(range(19)), 0.5)

    def test_rejects_degenerate_q(self):
        for q in (0.0, 1.0, -0.1):
            with self.assertRaises(ValueError):
                mx.quantile(list(range(100)), q)


class OpenLoopTest(unittest.TestCase):
    # Three requests due 10 ms apart. The second is sent 5 ms late (the
    # generator stalled) and served in 1 ms like the others.
    due = [0, 10_000_000, 20_000_000]
    sent = [0, 15_000_000, 20_000_000]
    done = [1_000_000, 16_000_000, 21_000_000]

    def test_latency_runs_from_the_due_time(self):
        self.assertEqual(mx.due_time_latency_ms(self.due, self.done),
                         [1.0, 6.0, 1.0])

    def test_lateness(self):
        self.assertEqual(mx.lateness_ms(self.due, self.sent), [0.0, 5.0, 0.0])

    @staticmethod
    def lenet_raw(open_loop):
        return {
            # One sample per daemon the run measured.
            "samples": {"setup_s": [0.3, 0.1, 0.2],
                        "closed_loop_cpu_ms_per_request": [0.25, 0.21, 0.3, 0.2],
                        "open_loop_cpu_ms_per_request": [0.07, 0.09, 0.06, 0.08],
                        "rows_per_cpu_s": [5.0, 6.0, 4.0, 5.0],
                        "rows_per_s": [9.0, 8.0, 10.0, 9.0],
                        "peak_rss_mb": [12.0, 13.0, 12.0, 12.0]},
            "values": {"size_ratio": 48.0},
            "open_loop": open_loop,
        }

    def test_end_to_end_uses_due_time_quantiles(self):
        n = 1000
        # Request i is due at i ms, sent on time, done 2 ms later, except
        # the last 20 which were sent 30 ms late.
        raw = self.lenet_raw({
            "due_ns": [i * 10**6 for i in range(n)],
            "sent_ns": [i * 10**6 + (30 * 10**6 if i >= n - 20 else 0)
                        for i in range(n)],
            "done_ns": [i * 10**6 + (32 if i >= n - 20 else 2) * 10**6
                        for i in range(n)],
        })
        details = {"samples": {}}
        out = run.end_to_end(raw, "lenet-serve", details)
        self.assertEqual(out["setup_s"], 0.2)
        self.assertAlmostEqual(out["primary_cpu_ms"], 0.23)
        self.assertAlmostEqual(out["secondary_cpu_ms"], 0.075)
        self.assertEqual(out["peak_rss_mb"], 12.0)
        self.assertEqual(
            details["samples"]["closed_loop_cpu_ms_per_request"], 4)
        self.assertEqual(details["measured"]["infer_p50_ms"], 2.0)
        self.assertEqual(details["measured"]["infer_p99_ms"], 32.0)
        self.assertEqual(details["samples"]["infer_p99_ms"], n)
        self.assertTrue(details["generator_late"])

    def test_short_open_loop_is_refused(self):
        raw = self.lenet_raw({"due_ns": [0] * 500, "sent_ns": [0] * 500,
                              "done_ns": [1] * 500})
        with self.assertRaises(mx.TooFewSamples):
            run.end_to_end(raw, "lenet-serve", {"samples": {}})


class ManifestTest(unittest.TestCase):
    """Every workload prints every metric BENCHMARK.json lists."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.manifest = json.load(f)

    def test_metric_names_and_units_match(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in self.manifest[key]}
            self.assertEqual(listed, table, key)

    def test_every_workload_is_mapped(self):
        names = {w["name"] for w in self.manifest["workloads"]}
        self.assertEqual(names, set(run.SOURCES))
        self.assertEqual(names, set(run.DETAILS))


class ErrorRateTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(mx.error_rate(200, 0), 0.0)
        self.assertEqual(mx.error_rate(200, 3), 0.015)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            mx.error_rate(0, 0)
        with self.assertRaises(ValueError):
            mx.error_rate(10, 11)


if __name__ == "__main__":
    unittest.main()
