#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic, on synthetic inputs.

    python3 perfbench/selftest.py

Covers the percentile rule, the pool_util / idle_s / overhead_s arithmetic
over trace spans, paper_err_pct, FullSweep-oracle mismatch detection and
the golden replay check and the registry's operation count, including
negative cases: a perturbed golden metric or oracle statistic must count as
a failed operation.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def scratch_dir():
    """A fresh directory under the benchmark's build directory."""
    os.makedirs(run.build_dir(), exist_ok=True)
    return tempfile.mkdtemp(dir=run.build_dir())


def span_events(spans):
    """Chrome trace B/E events for (name, lane, id, parent, t0, t1, args),
    in the order rnoc_bench writes them (per lane, nested)."""
    events = []
    for name, lane, sid, parent, t0, t1, args in spans:
        events.append({"name": name, "ph": "B", "ts": t0 * 1e6, "pid": 1,
                       "tid": lane, "args": {"id": sid, "parent": parent, **args}})
        events.append({"name": name, "ph": "E", "ts": t1 * 1e6, "pid": 1,
                       "tid": lane})
    return events


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 0.5)
        self.assertEqual(run.tail_percentile(39), 0.5)
        self.assertEqual(run.tail_percentile(40), 0.75)
        self.assertEqual(run.tail_percentile(100), 0.9)
        self.assertEqual(run.tail_percentile(999), 0.9)
        self.assertEqual(run.tail_percentile(1000), 0.99)

    def test_interpolated_percentile_and_description(self):
        self.assertEqual(run.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertAlmostEqual(run.percentile([1, 2], 0.75), 1.75)
        text = run.describe_timing([float(i) for i in range(40)], "s")
        self.assertIn("p75", text)
        self.assertIn("(n=40)", text)
        self.assertEqual(run.describe_timing([1.0, 2.0], "s"),
                         "median 1.5 s (n=2)")


class RegistryArithmetic(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_pool_util_idle_and_overhead(self):
        # Two threads, a 10 s pass after a set-up sample: campaign A runs
        # points on both lanes, campaign B likewise, then B's result is
        # serialized.
        spans = [
            ("registry.pass", 0, 1, 0, -0.5, 10.0, {}),
            ("registry.setup", 0, 10, 1, -0.5, 0.0, {}),
            ("campaign.run", 0, 2, 1, 0.0, 6.0, {"campaign": "mttf"}),
            ("campaign.run", 0, 3, 1, 6.0, 9.5, {"campaign": "self_heal"}),
            ("campaign.serialize", 0, 4, 1, 9.5, 10.0, {}),
            ("campaign.point", 1, 5, 2, 0.0, 4.0, {}),
            ("campaign.point", 1, 6, 2, 4.5, 5.5, {}),
            ("campaign.point", 1, 7, 3, 6.0, 9.0, {}),
            ("campaign.point", 2, 8, 2, 1.0, 5.0, {}),
            ("campaign.point", 2, 9, 3, 6.5, 9.5, {}),
        ]
        path = os.path.join(self.dir, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": span_events(spans)}, f)
        m = run.registry_layers(run.load_spans(path), threads=2)
        self.assertEqual(m["campaign.points"], 5)
        self.assertAlmostEqual(m["campaign.exec_s"], 15.0)
        self.assertAlmostEqual(m["campaign.pool_util"], 15.0 / 20.0)
        self.assertAlmostEqual(m["campaign.idle_s"], 5.0)
        # A: points cover [0, 5.5] of [0, 6]; B: fully covered.
        self.assertAlmostEqual(m["campaign.overhead_s"], 0.5)
        self.assertAlmostEqual(m["campaign.serialize_s"], 0.5)
        self.assertAlmostEqual(m["campaign.point_exec_s.p50"], 3.0)
        self.assertAlmostEqual(m["campaign.point_exec_s.max"], 4.0)
        self.assertAlmostEqual(m["campaign.wall_s.mttf"], 6.0)
        self.assertEqual(m["campaign.wall_s.fit_table1"], 0.0)

    def test_several_passes_report_medians(self):
        def one_pass(base, sid, wall):
            return [("registry.pass", 0, sid, 0, base, base + wall, {}),
                    ("campaign.run", 0, sid + 1, sid, base, base + wall,
                     {"campaign": "mttf"}),
                    ("campaign.point", 1, sid + 2, sid + 1, base, base + wall, {})]
        spans = one_pass(0.0, 1, 2.0) + one_pass(2.0, 10, 4.0) + one_pass(6.0, 20, 9.0)
        path = os.path.join(self.dir, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": span_events(spans)}, f)
        m = run.registry_layers(run.load_spans(path), threads=1)
        self.assertAlmostEqual(m["campaign.wall_s.mttf"], 4.0)
        self.assertEqual(m["campaign.points"], 1)
        self.assertAlmostEqual(m["campaign.pool_util"], 1.0)

    def test_self_time_clips_children_to_parent(self):
        parent = {"t0": 1.0, "t1": 5.0}
        kids = [{"t0": 0.0, "t1": 2.0}, {"t0": 1.5, "t1": 3.0},
                {"t0": 4.5, "t1": 9.0}]
        self.assertAlmostEqual(run.self_time(parent, kids), 1.5)


class RegistryOperations(unittest.TestCase):
    FAIL = {"campaign": "mttf", "point": "vc4", "why": "threw"}

    def test_count_does_not_depend_on_pass_count(self):
        one = [{"points": 30, "failed": []}]
        four = one * 4
        self.assertEqual(run.registry_operations(one, 12), (42, {}))
        self.assertEqual(run.registry_operations(four, 12), (42, {}))

    def test_point_failing_in_every_pass_fails_once(self):
        passes = [{"points": 30, "failed": [self.FAIL]}] * 3
        attempted, failed = run.registry_operations(passes, 12)
        self.assertEqual(attempted, 42)
        self.assertEqual(failed, {("mttf", "vc4"): "threw"})

    def test_point_failing_in_one_pass_counts(self):
        passes = [{"points": 30, "failed": []},
                  {"points": 30, "failed": [self.FAIL]}]
        self.assertEqual(len(run.registry_operations(passes, 0)[1]), 1)


class PaperError(unittest.TestCase):
    RESULTS = {"c": {"points": [
        {"id": "a", "metrics": [{"name": "m", "value": 110.0}]},
        {"id": "b", "metrics": [{"name": "m", "value": 90.0}]}]}}

    def test_mean_absolute_relative_error(self):
        refs = [{"name": "x", "paper": 100, "campaign": "c", "point": "a",
                 "metric": "m"},
                {"name": "y", "paper": 100, "campaign": "c", "point": "*",
                 "aggregate": "mean", "metric": "m"}]
        errs, mean = run.paper_errors(self.RESULTS, refs)
        self.assertAlmostEqual(errs["accuracy.x"], 10.0)
        self.assertAlmostEqual(errs["accuracy.y"], 0.0)
        self.assertAlmostEqual(mean, 5.0)

    def test_unmapped_reference_is_an_error(self):
        refs = [{"name": "z", "paper": 1, "campaign": "c", "point": "a",
                 "metric": "missing"}]
        with self.assertRaises(run.BenchError):
            run.paper_errors(self.RESULTS, refs)

    def test_committed_table_maps_to_known_campaigns(self):
        refs = run.load_refs()
        self.assertGreaterEqual(len(refs), 20)
        for ref in refs:
            self.assertIn(ref["campaign"], run.CAMPAIGNS)
            self.assertNotEqual(ref["paper"], 0)
            self.assertFalse(ref["metric"].startswith("published_"))


class OracleMismatch(unittest.TestCase):
    STATS = {"cycles": 13000, "flit_hops": 700000, "deadlock": False,
             "undelivered_flits": 0, "latency_mean": 31.25}

    def raw(self, runs):
        return {"oracle": {"stats": dict(self.STATS)},
                "warmup": {"stats": dict(self.STATS)},
                "runs": [{"stats": s} for s in runs]}

    def test_identical_runs_pass(self):
        ops, reasons = run.mesh_failures(self.raw([dict(self.STATS)] * 3))
        self.assertEqual((ops, reasons), (4, []))

    def test_perturbed_statistic_fails_one_operation(self):
        bad = dict(self.STATS, flit_hops=700001)
        ops, reasons = run.mesh_failures(self.raw([dict(self.STATS), bad]))
        self.assertEqual(ops, 3)
        self.assertEqual(len(reasons), 1)
        self.assertIn("flit_hops", reasons[0])

    def test_deadlock_and_lost_flits_fail(self):
        bad = dict(self.STATS, deadlock=True, undelivered_flits=5)
        _, reasons = run.mesh_failures(self.raw([bad]))
        self.assertEqual(len(reasons), 1)
        self.assertIn("deadlock", reasons[0])


class GoldenReplay(unittest.TestCase):
    GOLDEN = os.path.join(run.ROOT, "results", "golden")

    def setUp(self):
        self.dir = scratch_dir()
        for name in ("fit_table1.json", "spf_montecarlo.json"):
            shutil.copy(os.path.join(self.GOLDEN, name), self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def edit(self, name, fn):
        path = os.path.join(self.dir, name)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        fn(doc)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)

    def test_exact_copy_has_no_drift(self):
        self.assertEqual(run.drifting_points(self.GOLDEN, self.dir), {})

    def test_perturbed_exact_metric_fails_its_point(self):
        def bump(doc):
            doc["points"][0]["metrics"][0]["value"] += 1.0
        self.edit("fit_table1.json", bump)
        failed = run.drifting_points(self.GOLDEN, self.dir)
        self.assertEqual(list(failed), [("fit_table1", "stages")])

    def test_perturbed_statistical_metric_fails_its_point(self):
        def shift(doc):
            point = doc["points"][1]
            point["metrics"][0]["value"] *= 1.5
        self.edit("spf_montecarlo.json", shift)
        failed = run.drifting_points(self.GOLDEN, self.dir)
        self.assertEqual(list(failed), [("spf_montecarlo", "protected_all_sites")])

    def test_config_change_fails_every_point(self):
        def rehash(doc):
            doc["config_hash"] = "0" * 16
        self.edit("spf_montecarlo.json", rehash)
        failed = run.drifting_points(self.GOLDEN, self.dir)
        self.assertEqual(len(failed), 4)


class Records(unittest.TestCase):
    def record(self, threads, wall):
        return {"env": {"compiler": "gcc", "build_type": "Release"},
                "workloads": {"paper_registry": {
                    "threads": threads, "seed": 1,
                    "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}}

    def compare(self, a, b):
        d = scratch_dir()
        try:
            paths = []
            for i, rec in enumerate((a, b)):
                paths.append(os.path.join(d, f"{i}.json"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(rec, f)
            return run.compare(*paths)
        finally:
            shutil.rmtree(d)

    def test_refuses_different_pool_sizes(self):
        with self.assertRaises(run.BenchError):
            self.compare(self.record(4, 10.0), self.record(1, 10.0))

    def test_same_pool_size_compares(self):
        self.assertEqual(self.compare(self.record(4, 10.0), self.record(4, 9.0)), 0)


class MetricCoverage(unittest.TestCase):
    def test_every_per_layer_metric_is_always_produced(self):
        spec = run.load_benchmark_spec()
        produced = set(run.blank_layers(run.load_refs()))
        produced |= {"trace.overhead_pct", "failed_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, produced)


if __name__ == "__main__":
    unittest.main()
