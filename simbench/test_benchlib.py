"""Tests of the benchmark's own logic: python3 simbench/test_benchlib.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7], 99), 7)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(benchlib.highest_percentile(10000), 99.9)
        self.assertEqual(benchlib.highest_percentile(9999), 99.0)
        self.assertEqual(benchlib.highest_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_percentile(200), 95.0)
        self.assertEqual(benchlib.highest_percentile(100), 90.0)
        self.assertEqual(benchlib.highest_percentile(99), 75.0)
        self.assertEqual(benchlib.highest_percentile(20), 50.0)
        self.assertIsNone(benchlib.highest_percentile(19))

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)

    def test_latency_metrics_refuse_thin_p90(self):
        run.latency_metrics([1.0] * 100)
        with self.assertRaises(run.BenchError):
            run.latency_metrics([1.0] * 99)

    def test_latency_note_names_the_percentile_and_count(self):
        self.assertEqual(run.latency_note([float(i) for i in range(1, 1001)]),
                         "p50 500 ms, p99 990 ms (n=1000)")


class FailureCountTest(unittest.TestCase):
    EXPECTED = {
        "BFS:detailed": {"cycles": 100, "instructions": 50},
        "GEMM:basic": {"cycles": 200, "instructions": 80},
    }

    def results(self):
        return [{"key": "BFS:detailed", "cycles": 100, "instructions": 50},
                {"key": "GEMM:basic", "cycles": 200, "instructions": 80},
                {"key": "BFS:detailed", "cycles": 100, "instructions": 50}]

    def test_all_match(self):
        self.assertEqual(benchlib.count_failures(self.results(), self.EXPECTED)[:2], (3, 0))

    def test_forged_cycle_mismatch_is_one_failure(self):
        results = self.results()
        results[1]["cycles"] += 1
        attempted, failed, reasons = benchlib.count_failures(results, self.EXPECTED)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("GEMM:basic: cycles 201 != expected 200", reasons[0])

    def test_errors_and_unknown_keys_fail(self):
        results = [{"key": "BFS:detailed", "error": "queue_full"},
                   {"key": "NW:memory", "cycles": 1, "instructions": 1},
                   {"key": "GEMM:basic", "cycles": 200, "instructions": 81}]
        self.assertEqual(benchlib.count_failures(results, self.EXPECTED)[:2], (3, 3))

    def test_daemon_error_response_is_a_failure(self):
        sample = {"key": "k", "resp": {"ok": False, "error": "queue_full"}}
        result = run.as_result(sample)
        self.assertEqual(benchlib.count_failures([result], {"k": {}})[:2], (1, 1))


class RatioTest(unittest.TestCase):
    def test_printed_with_base(self):
        self.assertEqual(str(benchlib.Ratio(3, 4)), "0.75 (3/4)")
        self.assertEqual(str(benchlib.Ratio(0, 0)), "0 (0/0)")
        self.assertEqual(str(benchlib.Ratio(1.5, 3)), "0.5 (1.5/3)")

    def test_metric_lines_print_every_ratio_with_base(self):
        values = {"memo.hit_ratio": 0.875, "memo.bytes": 4096}
        units = {"memo.hit_ratio": "ratio", "memo.bytes": "B"}
        lines = benchlib.metric_lines(values, units, {"memo.hit_ratio": benchlib.Ratio(7, 8)})
        self.assertIn("0.875 (7/8)", lines[1])
        with self.assertRaises(ValueError):
            benchlib.metric_lines(values, units, {})

    def test_every_layer_ratio_unit_has_a_ratio(self):
        # layer_unit() names "ratio" only for the metrics probe_* build
        # from Ratio objects.
        for name in ("memo.hit_ratio", "parallel.cpu_util", "sim.skip_ratio.basic",
                     "service.coalesced_ratio", "analytical.profile_hit_ratio",
                     "parallel.wasted_cpu_share", "memo.miss_overhead_ratio",
                     "tracing.overhead_ratio"):
            self.assertEqual(run.layer_unit(name), "ratio")
        for name in ("memo.bytes", "service.queue_ms.p90",
                     "sim.ns_per_cycle.memory", "memo.cold_s.BFS"):
            self.assertNotEqual(run.layer_unit(name), "ratio")

    def test_memo_inexact(self):
        exp = {"a": {"cycles": 5, "fresh_cycles": 5}, "b": {"cycles": 5, "fresh_cycles": 6},
               "c:silicon": {"cycles": 9}}
        self.assertEqual(str(benchlib.memo_inexact(["a", "b", "b", "c:silicon"], exp)),
                         "0.5 (1/2)")


class SelfTimeTest(unittest.TestCase):
    def span(self, sid, parent, start, end, name="x"):
        return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end,
                "name": name, "job": 0}

    def test_nested(self):
        # root [0,100) with children [10,30) and [20,50) (overlapping,
        # covered once) and [90,120) (clipped to the root); the first child
        # has a grandchild [12,18) that only reduces the child's self time.
        spans = [self.span(1, 0, 0, 100, "root"),
                 self.span(2, 1, 10, 30, "a"),
                 self.span(3, 1, 20, 50, "b"),
                 self.span(4, 1, 90, 120, "c"),
                 self.span(5, 2, 12, 18, "a.inner")]
        own = benchlib.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 20 - 6)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[4], 30)
        self.assertEqual(own[5], 6)

    def test_by_name(self):
        spans = [self.span(1, 0, 0, 1000, "job"), self.span(2, 1, 0, 400, "sim.Run"),
                 self.span(3, 0, 1000, 2000, "job"), self.span(4, 3, 1000, 1900, "sim.Run")]
        table = benchlib.self_time_by_name(spans)
        self.assertEqual(table["job"]["count"], 2)
        self.assertAlmostEqual(table["job"]["self_s"], 700e-9)
        self.assertAlmostEqual(table["sim.Run"]["total_s"], 1300e-9)


class CycleErrorTest(unittest.TestCase):
    def test_mean_abs_error(self):
        pct = benchlib.cycle_error_pct({"a": 110, "b": 80}, {"a": 100, "b": 100})
        self.assertAlmostEqual(pct, 15.0)


class ArgsTest(unittest.TestCase):
    def exit_code(self, argv):
        with self.assertRaises(SystemExit) as cm:
            stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
            try:
                run.parse_args(argv)
            finally:
                sys.stderr.close()
                sys.stderr = stderr
        return cm.exception.code

    def test_help_and_bad_flags_exit_2(self):
        ok = ["--workload", "hybrid_memo", "--seed", "1", "--seconds", "5", "--trace", "0"]
        self.assertEqual(run.parse_args(ok)["seconds"], 5)
        self.assertEqual(self.exit_code(["--help"]), 2)
        self.assertEqual(self.exit_code(ok + ["--bogus"]), 2)
        self.assertEqual(self.exit_code(["--workload", "nope"] + ok[2:]), 2)
        self.assertEqual(self.exit_code(ok[:3] + ["x"] + ok[4:]), 2)
        self.assertEqual(self.exit_code(ok[:-1] + ["2"]), 2)
        self.assertEqual(self.exit_code(ok[:-1]), 2)


class RequestMixTest(unittest.TestCase):
    def test_shares(self):
        mix = run.RequestMix(5, 4)
        kinds = [mix.next()[0] for _ in range(38 * 500)]
        block = 6 * run.WARM_ROUNDS + run.SINGLE_COLD + 4
        self.assertEqual(mix.block_size, block)
        self.assertEqual(len(kinds) % block, 0)
        self.assertEqual(kinds.count("warm") * block, 6 * run.WARM_ROUNDS * len(kinds))
        self.assertEqual(kinds.count("burst") * block, 4 * len(kinds))

    def test_window_sends_a_fixed_number_of_never_seen_jobs(self):
        # Every daemon window holds the same count of distinct cold jobs,
        # so the daemon's cache size and peak RSS compare between runs.
        for seed in (1, 2, 3):
            mix = run.RequestMix(seed, 4)
            for _ in range(3):
                reqs = [mix.next() for _ in range(run.WINDOW_BLOCKS * mix.block_size)]
                cold = {job["key"] for kind, job in reqs if kind != "warm"}
                self.assertEqual(len(cold), run.WINDOW_BLOCKS * (run.SINGLE_COLD + 1))

    def test_same_seed_same_requests(self):
        a, b, c = run.RequestMix(5, 4), run.RequestMix(5, 4), run.RequestMix(6, 4)
        seq = [a.next()[1]["key"] for _ in range(200)]
        self.assertEqual(seq, [b.next()[1]["key"] for _ in range(200)])
        self.assertNotEqual(seq, [c.next()[1]["key"] for _ in range(200)])

    def test_bursts_are_identical_twins(self):
        mix = run.RequestMix(3, 4)
        reqs = [mix.next() for _ in range(4000)]
        i = 0
        while i < len(reqs) - 4:
            if reqs[i][0] == "burst":
                self.assertEqual({r[1]["key"] for r in reqs[i:i + 4]}, {reqs[i][1]["key"]})
                i += 4
            else:
                i += 1


if __name__ == "__main__":
    unittest.main()
