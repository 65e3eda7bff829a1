"""Self-tests for the benchmark's own helpers.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The statistics tests are pure.  The failure-counting and decorator tests
build the programs the way run.py does (into $CARGO_TARGET_DIR, default
.bench_build) and run them for a few seconds.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(run.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(101)), 0.99), 99)
        self.assertEqual(run.percentile([7], 0.99), 7)
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertTrue(run.tail_supported(1000, 0.99))
        self.assertFalse(run.tail_supported(999, 0.99))
        self.assertTrue(run.tail_supported(100, 0.9))
        self.assertFalse(run.tail_supported(99, 0.9))

    def test_timing_states_its_sample_count(self):
        counts = {}
        self.assertEqual(run.timing("t", list(range(11)), 0.5, counts), 5)
        self.assertEqual(counts["t"], {"samples": 11, "tail_supported": True})
        run.timing("p99", list(range(500)), 0.99, counts)
        self.assertEqual(counts["p99"], {"samples": 500, "tail_supported": False})


class MetricTables(unittest.TestCase):
    def test_run_py_reports_exactly_the_benchmark_json_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for group, table in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[group]}, table)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)


class FailureCounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()

    def test_tally_counts_failures_against_attempts(self):
        self.assertEqual(run.tally(4, 1), (4, 1, 0.75))
        with self.assertRaises(run.BenchError):
            run.tally(0, 0)

    def test_digest_mismatch_fails_every_trial_of_the_campaign(self):
        good = b'{"errors": 0, "incomplete": 1}\n'
        self.assertEqual(run.campaign_failures(good, run.sha256(good), 4), 1)
        self.assertEqual(run.campaign_failures(good, "0" * 64, 4), 4)

    def test_planted_bad_submit_shows_in_the_failure_count(self):
        attempted, failed, metrics, _ = run.serve_workload(
            self.bins, seed=7, seconds=2.0, trace=False, plant_bad=True)
        self.assertEqual(failed, 1)
        self.assertEqual(metrics["success_ratio"], (attempted - 1) / attempted)

    def test_clean_serve_run_has_no_failures(self):
        _, failed, metrics, _ = run.serve_workload(
            self.bins, seed=7, seconds=2.0, trace=True)
        self.assertEqual(failed, 0)
        self.assertEqual(metrics["scheduler.jobs_rejected"], 0)
        self.assertEqual(metrics["worker.restarts"], 0)


class DecoratorTransparency(unittest.TestCase):
    CASES = [
        ["--model=general_edge_meg", "--storage=sparse", "--n=64",
         "--wake=0.1", "--process=flooding", "--trials=6", "--seed=5"],
        ["--model=random_waypoint", "--n=64", "--side=8", "--radius=1",
         "--v_min=0.5", "--v_max=1", "--warmup=auto",
         "--process=gossip:pushpull", "--trials=6", "--seed=5"],
    ]

    def test_traced_bytes_equal_untraced_and_cli_bytes_at_n64(self):
        bins = run.build()
        for args in self.CASES:
            with self.subTest(model=args[0]):
                out = lambda cmd: subprocess.run(
                    cmd, capture_output=True, check=True).stdout
                plain = out([str(bins["campaign"])] + args)
                traced = out([str(bins["campaign"]), "--trace"] + args)
                cli = out([str(bins["run"])] + args + ["--format=json"])
                self.assertEqual(traced, plain)
                self.assertEqual(plain, cli)


if __name__ == "__main__":
    unittest.main()
