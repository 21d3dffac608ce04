"""Tests of the campaign benchmark's own statistics, derivations and specs.

    python3 -m unittest discover -s campbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_fails(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        # statistics.quantiles(n=4), exclusive method: positions (n+1)p.
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value_has_no_spread(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(stats.spread([7.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([5], 99.9), 5)

    def test_rule_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))  # 9 beyond the median
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)  # 9 beyond p90
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(44856), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.beyond(999, 99.0), 9)

    def test_describe_reports_tail_only_when_allowed(self):
        self.assertNotIn("tail_p", stats.describe([1.0] * 9))
        d = stats.describe(list(range(1, 101)))
        self.assertEqual((d["tail_p"], d["tail"], d["n"]), (90.0, 90, 100))


class BoundCheck(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(stats.worse_share(2.0, 2.2, "lower"), 0.1)
        self.assertTrue(stats.within_bound(2.0, 2.19, 0.1, "lower"))
        self.assertFalse(stats.within_bound(2.0, 2.21, 0.1, "lower"))
        self.assertTrue(stats.within_bound(2.0, 1.0, 0.0, "lower"))

    def test_higher_is_better(self):
        self.assertAlmostEqual(stats.worse_share(100, 80, "higher"), 0.2)
        self.assertFalse(stats.within_bound(100, 80, 0.1, "higher"))
        self.assertTrue(stats.within_bound(100, 120, 0.0, "higher"))

    def test_rejects_bad_direction_and_zero_base(self):
        with self.assertRaises(ValueError):
            stats.worse_share(1, 1, "faster")
        with self.assertRaises(ValueError):
            stats.worse_share(0, 1, "lower")


def record(host, wall, workload="paper-matrix", trace=0):
    return {"fingerprint": {"host": host, "commit": "x"},
            "workload": workload, "trace": trace,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


class Comparator(unittest.TestCase):
    HOST = {"cpu_model": "cpu", "nproc": 4, "compiler": "GCC 12",
            "build_type": "Release"}
    METRICS = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.1}]

    def test_refuses_different_hosts(self):
        other = dict(self.HOST, nproc=8)
        with self.assertRaises(compare.Refused):
            compare.check_comparable([record(self.HOST, 1),
                                      record(other, 1)])

    def test_refuses_different_workloads(self):
        with self.assertRaises(compare.Refused):
            compare.check_comparable([record(self.HOST, 1),
                                      record(self.HOST, 1, "model-sweep")])

    def test_commit_may_differ(self):
        a, b = record(self.HOST, 1), record(self.HOST, 1)
        b["fingerprint"]["commit"] = "y"
        compare.check_comparable([a, b])

    def test_bound_verdict_on_medians(self):
        base = [record(self.HOST, w) for w in (2.0, 2.1, 1.9)]
        ok = [record(self.HOST, w) for w in (2.1, 2.2, 2.15)]
        bad = [record(self.HOST, w) for w in (2.3, 2.4, 2.35)]
        self.assertTrue(compare.compare(base, ok, self.METRICS)[0][-1])
        self.assertFalse(compare.compare(base, bad, self.METRICS)[0][-1])


def span(sid, parent, name, start, end, cell=0, counts=(0, 0, 0, 0)):
    return layers.Span(sid, parent, name, cell, 0, start, end, counts)


class LayerDerivation(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(1, 0, "backend.codegen", 0, 1000),
                 span(2, 1, "fi.instrument", 200, 500),
                 span(3, 0, "vm.profile", 1000, 1500)]
        own = layers.self_times(spans)
        self.assertAlmostEqual(own["backend.codegen"], 700e-9)
        self.assertAlmostEqual(own["fi.instrument"], 300e-9)
        self.assertAlmostEqual(own["vm.profile"], 500e-9)

    def test_self_time_counts_overlapping_children_once(self):
        spans = [span(1, 0, "p", 0, 100), span(2, 1, "c", 10, 60),
                 span(3, 1, "c", 40, 120)]
        self.assertAlmostEqual(layers.self_times(spans)["p"], 10e-9)

    def test_trial_metrics_per_tool(self):
        cells = {0: ("EP", "LLFI", "LLFI"), 1: ("EP", "REFINE", "REFINE"),
                 2: ("EP", "PINFI", "PINFI")}
        spans = []
        for cell in cells:
            for i in range(4):
                # 1 ms trials executing 1000 instructions, 500 compiled,
                # 3000 fast-forwarded, 64 bytes restored.
                spans.append(span(10 * cell + i + 1, 0, "vm.trial", 0,
                                  1_000_000, cell, (1000, 500, 64, 3000)))
        metrics, notes = layers.trial_metrics(spans, cells)
        self.assertAlmostEqual(metrics["vm.trials_per_s.REFINE"][0], 1000)
        self.assertAlmostEqual(metrics["vm.mips.LLFI"][0], 1.0)
        self.assertAlmostEqual(metrics["vm.jit_coverage.PINFI"][0], 0.5)
        self.assertAlmostEqual(metrics["vm.trial_us_p50.LLFI"][0], 1000)
        self.assertAlmostEqual(metrics["vm.suffix_frac"][0], 0.25)
        self.assertAlmostEqual(metrics["vm.restored_bytes_per_trial"][0], 64)
        self.assertEqual(len(notes), 3)  # 4 trials cannot give a p99.9

    def test_net_metrics_from_frames(self):
        F = layers.Frame
        up, down = True, False
        frames = [
            F(0, 1, up, layers.REQUEST, 0, 0, 5),
            F(1_000_000, 1, down, layers.GRANT, 7, 1, 100),
            F(5_000_000, 1, up, layers.RECORD, 7, 1, 80),
            F(6_000_000, 1, up, layers.REQUEST, 0, 0, 5),
            F(7_000_000, 1, down, layers.WAIT, 0, 0, 8),
            F(257_000_000, 1, up, layers.REQUEST, 0, 0, 5),
            F(259_000_000, 1, down, layers.GRANT, 7, 2, 100),
        ]
        m = layers.net_metrics(frames)
        self.assertEqual(m["net.leases"][0], 2)
        self.assertEqual(m["net.reissues"][0], 1)
        self.assertEqual(m["net.wait_frames"][0], 1)
        self.assertAlmostEqual(m["net.wait_s"][0], 0.25)
        self.assertAlmostEqual(m["net.grant_ms_p50"][0], 1.5)
        self.assertAlmostEqual(m["net.grant_to_first_record_ms"][0], 4.0)
        self.assertEqual(m["net.bytes"][0], 303)

    def test_no_wire_gives_zeros(self):
        self.assertTrue(all(v == 0 for v, _ in
                            layers.net_metrics([]).values()))


class WorkloadSpec(unittest.TestCase):
    """workloads.json documents what BENCHMARK.json's fixed keys cannot
    hold; the two must describe the same workloads and metrics."""

    def setUp(self):
        with open(os.path.join(HERE, "workloads.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_same_workloads_and_reasons(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in self.bench["workloads"]},
            {n: w["why"] for n, w in self.spec["workloads"].items()})

    def test_documented_command_carries_the_matrix(self):
        for name, w in self.spec["workloads"].items():
            for arg in w["matrix"]:
                if arg != "4":  # served-plan documents its workers' threads
                    self.assertIn(arg, w["command"], name)

    def test_every_per_layer_metric_says_what_it_moves(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(names, set(self.spec["per_layer"]))
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for name, entry in self.spec["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]),
                                 set(self.spec["workloads"]), name)


if __name__ == "__main__":
    unittest.main()
