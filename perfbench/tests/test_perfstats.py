"""Self-test of the benchmark's own statistics and metric catalog.

  python3 -m unittest discover -s perfbench/tests

Needs no build: it exercises perfstats on synthetic records and checks that
BENCHMARK.json and the catalog agree.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import perfstats  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def record(**overrides):
    """One export record of a clean, completed run."""
    rec = {"ran": True, "completed": True, "fell_back": False,
           "verified": True, "audit_ran": True, "audit_ok": True,
           "degraded": False, "total_time_ns": 10 * 10**9,
           "downtime_ns": 10**9, "wire_bytes": 2**30, "cpu_ns": 10**9,
           "fault_stall_ns": 0, "pages_sent": 100, "retry_wire_bytes": 0,
           "demand_faults": 0, "burst_faults": 0, "control_losses": 0,
           "backoff_ns": 0}
    rec.update(overrides)
    return rec


class TailTest(unittest.TestCase):
    def test_level_keeps_ten_samples_beyond(self):
        self.assertIsNone(perfstats.tail_level(19))
        self.assertEqual(perfstats.tail_level(20), 50.0)
        self.assertEqual(perfstats.tail_level(54), 75.0)
        self.assertEqual(perfstats.tail_level(108), 90.0)
        self.assertEqual(perfstats.tail_level(199), 90.0)
        self.assertEqual(perfstats.tail_level(200), 95.0)
        self.assertEqual(perfstats.tail_level(1000), 99.0)
        self.assertEqual(perfstats.tail_level(10000), 99.9)

    def test_every_chosen_level_has_ten_beyond(self):
        for n in range(20, 2000):
            level = perfstats.tail_level(n)
            self.assertGreaterEqual(perfstats.beyond(n, level), 10)
            higher = [x for x in perfstats.TAIL_LEVELS if x > level]
            for x in higher:
                self.assertLess(perfstats.beyond(n, x), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(10, 0, -1))
        self.assertEqual(perfstats.percentile(values, 50), 5)
        self.assertEqual(perfstats.percentile(values, 90), 9)
        self.assertEqual(perfstats.percentile(values, 100), 10)
        self.assertEqual(perfstats.percentile(values, 1), 1)
        samples = list(range(1, 55))
        level = perfstats.tail_level(len(samples))
        tail = perfstats.percentile(samples, level)
        self.assertEqual(sum(1 for v in samples if v > tail), 13)


class RatioTest(unittest.TestCase):
    def test_empty_base_gives_zero(self):
        self.assertEqual(perfstats.ratio(5, 0), 0.0)
        self.assertEqual(perfstats.ratio(6, 3), 2.0)

    def test_ratio_metrics_declare_their_base(self):
        ratio_units = {"share", "pages", "us/s", "ns", "1/s"}
        for name, m in perfstats.CATALOG.items():
            if m.level == "per_layer" and m.unit in ratio_units:
                self.assertTrue(m.base, name + " is a ratio without a base")
            if m.base:
                self.assertIn(m.unit, ratio_units, name)


class LabelTest(unittest.TestCase):
    def test_sim_metrics_are_exact_and_host_metrics_noisy(self):
        for name, m in perfstats.CATALOG.items():
            if name.startswith("sim_") and name != "sim_s_per_host_s":
                self.assertEqual(m.kind, "sim", name)
            self.assertEqual(m.repeat, "exact" if m.kind == "sim" else "noisy")
        for name in ("wall_s", "scenario_ms_p50", "scenario_ms_tail",
                     "sim_s_per_host_s", "setup_s", "peak_rss_mib"):
            self.assertEqual(perfstats.CATALOG[name].kind, "host", name)

    def test_units(self):
        units = {"wall_s": "s", "scenario_ms_p50": "ms",
                 "scenario_ms_tail": "ms", "sim_s_per_host_s": "1/s",
                 "setup_s": "s", "peak_rss_mib": "MiB",
                 "sim_downtime_ms_p50": "ms", "sim_migration_s_p50": "s",
                 "sim_downtime_ms_gmean": "ms", "sim_migration_s_gmean": "s",
                 "sim_wire_gib": "GiB", "sim_daemon_cpu_s": "s",
                 "sim_fault_stall_s": "s", "core.setup_ms": "ms",
                 "mem.pages_per_probe.post": "pages",
                 "guest.post_host_us_per_sim_s.xen": "us/s",
                 "migration.host_ns_per_page_sent": "ns"}
        for name, unit in units.items():
            self.assertEqual(perfstats.CATALOG[name].unit, unit, name)

    def test_every_layer_metric_names_what_it_feeds(self):
        for name, m in perfstats.CATALOG.items():
            if m.level == "per_layer":
                self.assertTrue(m.feeds, name)


class BenchmarkJsonTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_contract_keys(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for entry in BENCHMARK["end_to_end"]:
            self.assertEqual(set(entry), {"name", "unit", "better", "bound"})
            self.assertLessEqual(entry["bound"], 0.25)
        for entry in BENCHMARK["per_layer"]:
            self.assertEqual(set(entry), {"name", "unit", "better"})
        names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for e in BENCHMARK[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for key in ("end_to_end", "per_layer"):
            for entry in BENCHMARK[key]:
                self.assertRegex(entry["unit"], self.UNIT)
        setup = [e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(e["bound"] for e in BENCHMARK["end_to_end"]))

    def test_matches_catalog(self):
        self.assertEqual({w["name"]: w["why"] for w in BENCHMARK["workloads"]},
                         perfstats.WORKLOADS)
        for level in ("end_to_end", "per_layer"):
            listed = [e["name"] for e in BENCHMARK[level]]
            self.assertEqual(listed, perfstats.gated_metrics(level))
            for entry in BENCHMARK[level]:
                m = perfstats.CATALOG[entry["name"]]
                self.assertEqual(entry["unit"], m.unit, entry["name"])
                self.assertEqual(entry["better"], m.better, entry["name"])
                if level == "end_to_end":
                    self.assertEqual(entry["bound"], m.bound, entry["name"])

    def test_ungated_metrics_stay_out_of_the_contract(self):
        listed = {e["name"] for e in BENCHMARK["end_to_end"]}
        for name in ("failure_rate", "sim_fault_stall_s",
                     "sim_downtime_ms_p50", "sim_migration_s_p50"):
            self.assertNotIn(name, listed)

    def test_seeds(self):
        self.assertNotEqual(perfstats.DEFAULT_SEED, perfstats.HELD_OUT_SEED)


class RecordTest(unittest.TestCase):
    def test_failure_accounting(self):
        self.assertFalse(perfstats.record_failed(record()))
        self.assertTrue(perfstats.record_failed({"ran": False}))
        self.assertTrue(perfstats.record_failed(record(verified=False)))
        self.assertTrue(perfstats.record_failed(record(audit_ok=False)))
        self.assertTrue(perfstats.record_failed(record(audit_ran=False)))
        # Aborted runs need not verify: they are outcomes, not failures.
        self.assertFalse(perfstats.record_failed(
            record(completed=False, verified=False)))
        self.assertFalse(perfstats.record_failed(record(degraded=True)))
        self.assertFalse(perfstats.record_failed(record(fell_back=True)))

    def test_medians_skip_aborted_degraded_and_fallback_runs(self):
        export = [record(downtime_ns=1 * 10**6), record(downtime_ns=3 * 10**6),
                  record(completed=False, downtime_ns=10**12),
                  record(degraded=True, downtime_ns=10**12),
                  record(fell_back=True, downtime_ns=10**12)]
        sim = perfstats.sim_metrics(export)
        self.assertEqual(sim["sim_downtime_ms_p50"], 2.0)
        self.assertAlmostEqual(sim["sim_downtime_ms_gmean"], 3 ** 0.5)
        self.assertEqual(sim["sim_wire_gib"], 5.0)
        counts = perfstats.outcome_counts(export)
        self.assertEqual(counts, {"aborted": 1, "fell_back": 1,
                                  "degraded": 1, "failed": 0})

    def test_timed_metrics(self):
        scenarios = [{"warmup_ns": 10 * 10**9, "cooldown_ns": 5 * 10**9}] * 2
        export = [record(), record(total_time_ns=20 * 10**9)]
        reps = [{"rep": r, "list": 0, "wall_ns": w * 10**9}
                for r, w in enumerate((1, 2, 3))]
        rows = [{"rep": r, "i": i, "host_ns": (10 * r + i + 1) * 10**6}
                for r in range(3) for i in range(2)]
        setup = [{"setup_ns": n * 10**8} for n in (1, 5, 3)]
        m, _ = perfstats.timed_metrics(scenarios, rows, reps,
                                       {0: export, 1: export, 2: export},
                                       setup, 2048, 20)
        self.assertEqual(m["wall_s"], 2)
        self.assertEqual(m["setup_s"], 0.3)
        self.assertEqual(m["peak_rss_mib"], 2.0)
        self.assertEqual(m["scenario_ms_p50"], 11.5)
        # The level comes from the 20 guaranteed samples (p50), not the 6 run.
        self.assertEqual(m["scenario_ms_tail"], 11)
        # Median over repetitions of 60 simulated seconds per wall time.
        self.assertEqual(m["sim_s_per_host_s"], 30)
        self.assertEqual(m["sim_migration_s_p50"], 15.0)


class SpanTest(unittest.TestCase):
    def spans(self):
        return [
            {"run": 0, "id": 0, "parent": -1, "name": "scenario",
             "start_ns": 0, "end_ns": 100},
            {"run": 0, "id": 1, "parent": 0, "name": "core.setup",
             "start_ns": 0, "end_ns": 40},
            {"run": 0, "id": 2, "parent": 0, "name": "guest.warmup",
             "start_ns": 40, "end_ns": 98},
        ]

    def test_coverage_counts_dark_time(self):
        self.assertAlmostEqual(perfstats.span_coverage(self.spans()), 0.98)
        self.assertEqual(perfstats.check_spans(self.spans()), [])

    def test_structure_problems(self):
        spans = self.spans()
        spans[2]["end_ns"] = 120
        self.assertEqual(len(perfstats.check_spans(spans)), 1)
        spans = self.spans()
        spans[1]["run"] = 7
        self.assertEqual(len(perfstats.check_spans(spans)), 1)
        spans = self.spans()
        spans[1]["name"] = "mystery"
        self.assertEqual(len(perfstats.check_spans(spans)), 1)

    def test_durations_by_run(self):
        d = perfstats.span_durations(self.spans())
        self.assertEqual(d[0]["scenario"], 100)
        self.assertEqual(d[0]["guest.warmup"], 58)


if __name__ == "__main__":
    unittest.main()
