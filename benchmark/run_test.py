#!/usr/bin/env python3
"""Tests for run.py: statistics, verdicts, span self times, the per-layer
derivation, the results-file round trip and BENCHMARK.json's shape.

    python3 benchmark/run_test.py

Standard library only; runs nothing but Python.
"""
import copy
import os
import re
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(name, sid, parent, start, end, key=0):
    return (name, sid, parent, key, start, end)


class Statistics(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        v = [5, 1, 4, 2, 3]
        self.assertEqual(run.percentile(v, 0.5), 3)
        self.assertEqual(run.percentile(v, 0.9), 5)
        self.assertEqual(run.percentile(v, 0.2), 1)
        self.assertEqual(run.percentile(list(range(1, 101)), 0.99), 99)
        self.assertEqual(run.percentile([], 0.5), 0.0)

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)
        self.assertEqual(run.median([]), 0.0)

    def test_quartile_spread_uses_statistics_quantiles(self):
        v = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(run.quartile_spread(v), (q3 - q1) / 14.5)
        self.assertEqual(run.quartile_spread([3.0]), 0.0)
        self.assertEqual(run.quartile_spread([2.0] * 5), 0.0)

    def test_hist_percentile_is_nearest_rank_within_the_bin(self):
        bins = [[200, 300, 2], [100, 110, 4]]  # any order
        self.assertAlmostEqual(run.hist_percentile(bins, 0.5), 107.5)
        self.assertAlmostEqual(run.hist_percentile(bins, 0.25), 105)
        self.assertAlmostEqual(run.hist_percentile(bins, 1.0), 300)
        self.assertAlmostEqual(run.hist_percentile(bins, 0.01), 102.5)
        self.assertEqual(run.hist_percentile([], 0.5), 0.0)
        # Width-1 bins give the exact value to within one nanosecond.
        exact = [[v, v + 1, 1] for v in (5, 1, 4, 2, 3)]
        self.assertAlmostEqual(run.hist_percentile(exact, 0.5), 4)


class Verdicts(unittest.TestCase):
    def test_within_bound_is_same(self):
        self.assertEqual(run.verdict(100, 105, "higher", 0.1), "same")
        self.assertEqual(run.verdict(100, 91, "higher", 0.1), "same")

    def test_direction_decides_worse_and_better(self):
        self.assertEqual(run.verdict(100, 85, "higher", 0.1), "worse")
        self.assertEqual(run.verdict(100, 120, "higher", 0.1), "better")
        self.assertEqual(run.verdict(10, 12, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(10, 8, "lower", 0.1), "better")

    def test_spread_wider_than_bound_is_unresolved(self):
        self.assertEqual(run.verdict(100, 150, "higher", 0.1, spread=0.2),
                         "unresolved")

    def test_deterministic_metrics_must_match_exactly(self):
        self.assertEqual(run.verdict(0.5, 0.5, "", 0, exact=True), "same")
        self.assertEqual(run.verdict(0.5, 0.5000001, "", 0, exact=True),
                         "changed")


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span("step", 1, 0, 0, 100), span("nn.forward", 2, 1, 0, 30),
                 span("nn.backward", 3, 1, 40, 90),
                 span("step", 4, 0, 100, 150)]
        t = run.span_table(spans)
        self.assertEqual(t["step"]["count"], 2)
        self.assertAlmostEqual(t["step"]["total_ms"], 150e-6)
        self.assertAlmostEqual(t["step"]["self_ms"], 70e-6)
        self.assertAlmostEqual(t["nn.forward"]["self_ms"], 30e-6)

    def test_coverage_clips_to_window_and_counts_lanes(self):
        spans = [span("serve.request", 1, 0, -10, 40),
                 span("serve.request", 2, 0, 50, 100),
                 span("serve.request", 3, 0, 0, 100),
                 span("serve.run_b1", 4, 0, 200, 300),
                 span("nn.forward", 5, 3, 0, 100)]
        self.assertAlmostEqual(run.coverage(spans, (0, 100), 2), 0.95)
        self.assertEqual(run.coverage(spans, (5, 5), 1), 0.0)

    def test_training_layer_metrics(self):
        ms = 1_000_000
        spans = []
        for i, t in enumerate((0, 10 * ms)):  # two 10 ms steps
            base = 1 + 7 * i
            spans += [span("step", base, 0, t, t + 10 * ms, i),
                      span("nn.forward", base + 1, base, t, t + 4 * ms, i),
                      span("train.loss", base + 2, base, t + 4 * ms,
                           t + 5 * ms, i),
                      span("nn.backward", base + 3, base, t + 5 * ms,
                           t + 8 * ms, i),
                      span("train.reduce", base + 4, base, t + 8 * ms,
                           t + 9 * ms, i),
                      span("core.controller", base + 5, base, t + 9 * ms,
                           t + 9.5 * ms, i),
                      span("train.update", base + 6, base, t + 9.5 * ms,
                           t + 10 * ms, i)]
        spans += [span("eval", 15, 0, 20 * ms, 22 * ms),
                  span("nn.eval_forward", 16, 15, 20 * ms, 21 * ms),
                  span("data.assemble", 17, 0, 30 * ms, 38 * ms, key=4)]
        m = run.layer_metrics(spans, (0, 22 * ms), 1)
        self.assertEqual(m["train.steps"], 2)
        self.assertAlmostEqual(m["nn.forward_ms_per_step"], 4)
        self.assertAlmostEqual(m["nn.backward_ms_per_step"], 3)
        self.assertAlmostEqual(m["train.update_ms_per_step"], 0.5)
        self.assertAlmostEqual(m["core.controller_share"], 0.05)
        self.assertAlmostEqual(m["nn.eval_ms_per_epoch"], 1)
        self.assertAlmostEqual(m["data.assemble_ms_per_batch"], 2)
        self.assertAlmostEqual(m["train.step_ms_p50"], 10)
        self.assertAlmostEqual(m["trace.coverage"], 1.0)
        self.assertEqual(m["serve.run_b1_us"], 0.0)

    def test_serving_wait_is_request_p50_minus_solo_run(self):
        us = 1000
        spans = [span("serve.request", i + 1, 0, 0, (80 + i) * us)
                 for i in range(5)]
        spans += [span("serve.run_b1", 10 + i, 0, 0, 60 * us)
                  for i in range(3)]
        m = run.layer_metrics(spans, (0, 100 * us), 1)
        self.assertAlmostEqual(m["serve.run_b1_us"], 60)
        self.assertAlmostEqual(m["serve.wait_us"], 22)
        self.assertAlmostEqual(m["serve.p90_us"], 84)
        self.assertAlmostEqual(m["serve.p99_us"], 84)


class EndToEnd(unittest.TestCase):
    def training_record(self, slowdown):
        """Two epochs of three steps, on a host `slowdown` times slower
        than the reference, with a probe as much slower."""
        ref = run.REFERENCE_PROBE_MS
        return {"samples": {"setup_s": [0.3 * slowdown, 0.5 * slowdown,
                                        0.4 * slowdown],
                            "setup_probe_ms": [ref * slowdown] * 3,
                            "step_ms": [v * slowdown
                                        for v in (10, 12, 11, 20, 22, 21)],
                            "epoch_s": [2.0 * slowdown, 4.0 * slowdown],
                            "epoch_step_end": [3, 6],
                            "items_per_epoch": [100],
                            "probe_ms": [ref * slowdown, ref * slowdown]},
                "latency_windows": [],
                "measured": {"peak_rss_mb": {"value": 40.0, "unit": "MB"}}}

    def test_training_metrics_come_from_steps_and_epochs(self):
        m, n = run.end_to_end(self.training_record(1.0))
        self.assertEqual(n, 6)
        self.assertEqual(m["setup_s"], (0.4, [0.3, 0.5, 0.4]))
        # Whole-run throughput and mean step; per-epoch windows.
        self.assertAlmostEqual(m["items_per_s"][0], 200 / 6)
        self.assertEqual(m["items_per_s"][1], [50.0, 25.0])
        self.assertEqual(m["latency_ms"], (16, [11, 21]))
        self.assertEqual(m["peak_rss_mb"], (40.0, []))

    def test_times_are_scaled_by_the_host_probe(self):
        ref, _ = run.end_to_end(self.training_record(1.0))
        slow, _ = run.end_to_end(self.training_record(1.6))
        for name in ("setup_s", "items_per_s", "latency_ms"):
            self.assertAlmostEqual(slow[name][0], ref[name][0])
            for a, b in zip(slow[name][1], ref[name][1]):
                self.assertAlmostEqual(a, b)
        ref = run.REFERENCE_PROBE_MS
        self.assertAlmostEqual(run.host_slowdown([ref * 1.5, ref * 2.5]), 2.0)

    def test_each_epoch_is_scaled_by_its_own_probes(self):
        ref = run.REFERENCE_PROBE_MS
        self.assertEqual(run.window_slowdowns([ref, 3 * ref, 2 * ref,
                                               2 * ref], 2), [2.0, 2.0])
        # The second epoch ran twice as slow, and so did its probes (one
        # per step): its window reads as the first one does.
        rec = self.training_record(1.0)
        s = rec["samples"]
        s["step_ms"] = [10, 12, 11, 20, 24, 22]
        s["epoch_s"] = [2.0, 4.0]
        s["probe_ms"] = [ref] * 3 + [2 * ref] * 3
        m, _ = run.end_to_end(rec)
        self.assertEqual(m["latency_ms"][1], [11, 11])
        self.assertEqual(m["items_per_s"][1], [50.0, 50.0])
        self.assertAlmostEqual(m["latency_ms"][0], 16.5 / 1.5)

    def test_serving_metrics_come_from_window_histograms(self):
        ms = 1_000_000
        ref = run.REFERENCE_PROBE_MS
        rec = {"samples": {"setup_s": [0.1], "setup_probe_ms": [ref],
                           "window_s": [0.5], "wall_s": [1.5],
                           "probe_ms": [ref] * 3},
               "latency_windows": [[[ms, ms + 10, 3]],
                                   [[ms, ms + 10, 1], [2 * ms, 2 * ms + 10, 4]],
                                   [[3 * ms, 3 * ms + 10, 1]]],
               "measured": {}}
        m, n = run.end_to_end(rec)
        self.assertEqual(n, 9)
        self.assertEqual(m["setup_s"], (0.1, [0.1]))
        self.assertEqual(m["items_per_s"], (6.0, [6.0, 10.0, 2.0]))
        # The pooled p50 (rank 5 of 9) merges equal bins across windows.
        self.assertAlmostEqual(m["latency_ms"][0], (2 * ms + 2.5) / 1e6)
        p50s = [(ms + 20 / 3) / 1e6, (2 * ms + 5) / 1e6, (3 * ms + 10) / 1e6]
        self.assertEqual(len(m["latency_ms"][1]), 3)
        for got, want in zip(m["latency_ms"][1], p50s):
            self.assertAlmostEqual(got, want)
        # The same replies with probes twice as slow: a host twice as slow
        # did this much work, so on the reference host it would be twice
        # as fast.
        rec["samples"]["probe_ms"] = [2 * ref] * 3
        slow, _ = run.end_to_end(rec)
        self.assertAlmostEqual(slow["items_per_s"][0], 12.0)
        self.assertAlmostEqual(slow["latency_ms"][0], (ms + 1.25) / 1e6)

    def test_overhead_is_traced_over_untraced_time_per_item(self):
        rec = {"samples": {"s_per_item_untraced": [0.002],
                           "s_per_item_traced": [0.0021]}}
        self.assertAlmostEqual(run.overhead(rec), 0.05)


def result_set(mode="full"):
    metric = {"value": 100.0, "unit": "items/s", "spread": 0.02}
    return {
        "schema": "apt-e2e-set/1", "seed": 7, "mode": mode, "seconds": 12,
        "host": {"nproc": 4, "machine": "x86_64", "pool_threads": 4,
                 "avx2": True, "compiler": "GNU 12.2.0",
                 "build_type": "Release"},
        "workloads": {"train_fp32": {
            "correct": True, "attempted": 10, "failed": 0,
            "error_rate": 0.0, "history_hash": "0123456789abcdef",
            "end_to_end": {"items_per_s": dict(metric)},
            "per_layer": {"core.bit_changes": {"value": 0, "unit": "count"}},
            "spans": {}}},
    }


SPEC = {"end_to_end": [{"name": "items_per_s", "unit": "items/s",
                        "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "core.bit_changes", "unit": "count",
                       "better": "lower"},
                      {"name": "serve.mean_batch", "unit": "req/batch",
                       "better": "higher"}]}


class Results(unittest.TestCase):
    def test_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "set.json")
            run.write_results(path, result_set())
            self.assertEqual(run.load_results(path), result_set())

    def test_load_rejects_other_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "other.json")
            run.write_results(path, {"schema": "something-else"})
            with self.assertRaises(run.BenchError):
                run.load_results(path)

    def test_compare_refuses_smoke_and_other_hosts(self):
        with self.assertRaises(run.BenchError):
            run.compare(result_set(), result_set("smoke"), SPEC)
        other = result_set()
        other["host"]["pool_threads"] = 2
        with self.assertRaises(run.BenchError):
            run.compare(result_set(), other, SPEC)

    def test_compare_gives_a_verdict_per_workload_and_metric(self):
        b = result_set()
        b["workloads"]["train_fp32"]["end_to_end"]["items_per_s"][
            "value"] = 80.0
        b["workloads"]["train_fp32"]["per_layer"]["core.bit_changes"][
            "value"] = 3
        rows = {(w, m): v for w, m, _, _, v in
                run.compare(result_set(), b, SPEC)}
        self.assertEqual(rows[("train_fp32", "items_per_s")], "worse")
        self.assertEqual(rows[("train_fp32", "core.bit_changes")], "changed")
        self.assertEqual(rows[("train_fp32", "history_hash")], "same")


class Reported(unittest.TestCase):
    def test_untraced_metrics_must_match_names_and_units(self):
        rec = {"measured": {"items_per_s": {"value": 5.0, "unit": "items/s"}},
               "e2e": {"items_per_s": (5.0, [])}}
        self.assertEqual(run.reported(rec, SPEC, False),
                         {"items_per_s": {"value": 5.0, "unit": "items/s"}})
        bad = copy.deepcopy(rec)
        bad["measured"]["items_per_s"]["unit"] = "1/s"
        with self.assertRaises(run.BenchError):
            run.reported(bad, SPEC, False)
        with self.assertRaises(run.BenchError):
            run.reported({"measured": {}, "e2e": {}}, SPEC, False)
        extra = copy.deepcopy(rec)
        extra["e2e"]["latency_p99_ms"] = (1.0, [])
        with self.assertRaises(run.BenchError):
            run.reported(extra, SPEC, False)

    def test_traced_metrics_fill_unexercised_layers_with_zero(self):
        rec = {"counters": {"core.bit_changes": {"value": 4, "unit": "count"}},
               "layer": {}}
        out = run.reported(rec, SPEC, True)
        self.assertEqual(out["core.bit_changes"]["value"], 4)
        self.assertEqual(out["serve.mean_batch"]["value"], 0.0)
        rec["layer"]["nn.unknown"] = 1.0
        with self.assertRaises(run.BenchError):
            run.reported(rec, SPEC, True)


class Contract(unittest.TestCase):
    """BENCHMARK.json stays within the limits its consumers enforce."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_shape(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "benchmark/run.py"])
        self.assertEqual(spec["paths"], ["benchmark"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, self.NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_span_derived_metrics_are_all_declared(self):
        declared = {m["name"] for m in run.load_spec()["per_layer"]}
        self.assertLessEqual(set(run.layer_metrics([], (0, 1), 1)), declared)


if __name__ == "__main__":
    unittest.main()
