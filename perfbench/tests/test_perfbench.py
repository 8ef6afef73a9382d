"""Tests for the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root.  The oracle test and the seed check build the
driver first (see perfbench/run.py); the seed check runs every workload
twice, about a minute in all.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import trace_summary  # noqa: E402


SETUP_S = [0.3, 0.1, 0.2]


def raw_result(latencies, outcomes, wall_s=1.0, limit=1000.0):
    return {"latency_ms": latencies, "outcomes": outcomes, "wall_s": wall_s,
            "item_limit_ms": limit, "peak_rss_mb": 10.0}


class TailRule(unittest.TestCase):
    def test_no_tail_under_eleven_items(self):
        for n in range(11):
            self.assertIsNone(run.tail_percentile(n))

    def test_tail_has_at_least_ten_items_beyond(self):
        for n in range(11, 30000, 7):
            p = run.tail_percentile(n)
            if p is None:
                continue
            self.assertGreaterEqual(n - run.rank(p, n), 10, (n, p))
            for q in run.TAIL_LADDER:
                if q > p:
                    self.assertLess(n - run.rank(q, n), 10, (n, q))

    def test_ladder_steps(self):
        self.assertIsNone(run.tail_percentile(19))  # p50 leaves 9 beyond
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(62), 75.0)
        self.assertEqual(run.tail_percentile(400), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_tail_metric_omitted_for_short_runs(self):
        metrics, facts = run.end_to_end(raw_result([1.0] * 10, ["ok"] * 10),
                                        SETUP_S)
        self.assertNotIn("latency_tail_ms", metrics)
        self.assertIsNone(facts["tail_percentile"])


class ErrorRate(unittest.TestCase):
    def test_refusals_and_timeouts_are_failures(self):
        outcomes = ["ok"] * 16 + ["saturated", "timeout", "error",
                                  "resource_limited"]
        metrics, facts = run.end_to_end(
            raw_result([1.0] * 20, outcomes, wall_s=2.0), SETUP_S)
        self.assertEqual(facts["attempted"], 20)
        self.assertEqual(facts["failed"], 4)
        self.assertAlmostEqual(facts["error_rate"], 0.2)
        self.assertEqual(facts["failures"]["saturated"], 1)
        # Throughput counts completed items only.
        self.assertAlmostEqual(metrics["throughput_per_s"][0], 8.0)

    def test_failed_items_miss_every_latency_limit(self):
        # A refused request answered in 0.01 ms still ranks above every
        # completed item; the tail (p50 for 20 items) lands on a failure
        # and reports the item limit.
        latencies = [5.0] * 9 + [0.01] * 11
        outcomes = ["ok"] * 9 + ["saturated"] * 11
        metrics, _ = run.end_to_end(
            raw_result(latencies, outcomes, limit=777.0), SETUP_S)
        self.assertEqual(metrics["latency_p50_ms"][0], 777.0)
        self.assertEqual(metrics["latency_tail_ms"][0], 777.0)

    def test_completed_items_keep_their_latency(self):
        metrics, facts = run.end_to_end(
            raw_result([float(i) for i in range(1, 101)], ["ok"] * 100),
            SETUP_S)
        self.assertEqual(facts["failed"], 0)
        self.assertEqual(metrics["latency_p50_ms"][0], 50.0)
        self.assertEqual(metrics["latency_tail_ms"][0], 90.0)  # p90
        self.assertEqual(metrics["setup_s"][0], 0.2)  # median of three


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(ident, parent, ts, dur, tid=1, name="x"):
        return {"name": name, "ts": ts, "dur": dur, "tid": tid, "id": ident,
                "parent": parent, "item": 0, "args": {}}

    def test_parallel_children_on_several_threads(self):
        spans = [self.span(1, 0, 0, 100, name="parent"),
                 self.span(2, 1, 10, 50, tid=2, name="child"),
                 self.span(3, 1, 40, 50, tid=3, name="child"),
                 self.span(4, 1, 45, 10, tid=4, name="child")]
        table = trace_summary.self_times(spans)
        # The children cover [10, 90] together: 80 of the parent's 100 µs.
        self.assertAlmostEqual(table["parent"]["self_us"], 20.0)
        self.assertAlmostEqual(table["child"]["self_us"], 110.0)
        self.assertEqual(table["child"]["calls"], 3)

    def test_children_outliving_the_parent_are_clipped(self):
        spans = [self.span(1, 0, 100, 100, name="parent"),
                 self.span(2, 1, 50, 100, tid=2),
                 self.span(3, 1, 190, 50, tid=3)]
        table = trace_summary.self_times(spans)
        self.assertAlmostEqual(table["parent"]["self_us"], 40.0)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        spans = [self.span(1, 0, 0, 100, name="root"),
                 self.span(2, 1, 0, 10, name="mid"),
                 self.span(3, 2, 50, 40, name="leaf")]  # not inside mid
        table = trace_summary.self_times(spans)
        self.assertAlmostEqual(table["root"]["self_us"], 90.0)


class Oracle(unittest.TestCase):
    def test_oracle_comparison(self):
        binary = run.build("perfbench_oracle_test")
        spool = binary.parent / "oracle_test.spool"
        proc = subprocess.run([str(binary), str(spool)], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class Seeds(unittest.TestCase):
    """Two seeds give different inputs, and both pass the oracle."""

    def test_two_seeds_differ_and_pass(self):
        driver = run.build()
        for workload in run.WORKLOADS:
            digests = []
            for seed in (1, 2):
                command = [str(driver), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5",
                           "--trace", "0"]
                self.assertGreater(run.setup_seconds(command), 0.0)
                proc = subprocess.run(command, capture_output=True, text=True,
                                      timeout=170)
                self.assertEqual(proc.returncode, 0, (workload, seed, proc.stderr))
                raw = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(raw["mismatches"], [])
                self.assertNotIn("wrong", raw["outcomes"])
                digests.append(raw["info"]["inputs_digest"])
            self.assertNotEqual(digests[0], digests[1], workload)


if __name__ == "__main__":
    unittest.main()
