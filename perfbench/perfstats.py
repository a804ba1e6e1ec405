"""Statistics and the metric catalog of the repo benchmark.

Pure functions over the driver's raw records (see driver.cc for the file
formats), so tests/test_perfstats.py can check them without a build.

Every metric is declared once in CATALOG with its unit, whether it is host
time/memory ("host", noisy: it varies run to run) or simulated ("sim",
exact-repeat: the same seed gives the same value bit for bit), its level
(end-to-end or per-layer), the base of a ratio, and the end-to-end metrics it
should move on which workload. BENCHMARK.json's fixed key set has no room
for those annotations, so they live here and a test keeps the two in step.
"""

import math
import statistics

# The seed every figure in CHANGES.md was taken at, and one held out while
# the benchmark was written, so a later claim can be re-checked on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = {
    "paper_precopy": (
        "9 SPECjvm2008 proxies x {Xen, JAVMM, Xen+hotness}, paper phasing, "
        "2 GiB, healthy link: guest simulation dominates; the only workload "
        "with hotness and the post-Xen slowdown"),
    "faulted_striped": (
        "crypto, derby x 6 fault regimes x 4 engines x {1,4} channels: "
        "Migrate dominates via retry, backoff, striping, post-copy demand "
        "fetches and tracing (the failure path)"),
    "large_vm": (
        "8 GiB guest x {derby, crypto, scimark} x 4 engines: host work scales "
        "with memory (construction, full sweeps, pre-paging, verification, "
        "LKM bitmap), not dirty rate"),
}

ENGINES = ("xen", "javmm", "stopcopy", "postcopy")

# Percentile levels the tail may take, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Least share of traced scenario wall time the layer spans must cover.
MIN_SPAN_COVERAGE = 0.95


class Metric:
    """One catalog entry. `gated` metrics appear in BENCHMARK.json; the rest
    are printed only, because they are 0 on a clean run (failure_rate) or
    on a whole workload (sim_fault_stall_s on paper_precopy), where a bound
    relative to the median means nothing, or too seed-sensitive to gate
    (the sim_* medians, see below)."""

    def __init__(self, unit, kind, level, better="lower", bound=None,
                 base=None, feeds=None, gated=True):
        assert kind in ("host", "sim")
        assert level in ("end_to_end", "per_layer")
        self.unit = unit
        self.kind = kind
        self.level = level
        self.better = better
        self.bound = bound
        self.base = base
        self.feeds = feeds or ""
        self.gated = gated

    @property
    def repeat(self):
        return "exact" if self.kind == "sim" else "noisy"


def _e2e(unit, kind, bound, better="lower", gated=True):
    return Metric(unit, kind, "end_to_end", better=better, bound=bound,
                  gated=gated)


def _layer(unit, kind, feeds, base=None, better="lower"):
    return Metric(unit, kind, "per_layer", better=better, base=base,
                  feeds=feeds)


def _build_catalog():
    c = {}
    # ---- End to end (timed pass, tracing off). ----
    # Host bounds: the widest allowed. On a shared 4-core VM the same seed's
    # wall time moves by up to a third between runs when neighbours get
    # busy, and ten seeds' inter-quartile spread reached 0.14 (large_vm).
    # peak_rss_mib is bimodal across seeds (108 or 120 MiB on large_vm,
    # from where the allocator's heap top lands).
    c["wall_s"] = _e2e("s", "host", 0.25)
    c["scenario_ms_p50"] = _e2e("ms", "host", 0.25)
    c["scenario_ms_tail"] = _e2e("ms", "host", 0.25)
    c["sim_s_per_host_s"] = _e2e("1/s", "host", 0.25, better="higher")
    c["setup_s"] = _e2e("s", "host", 0.25)
    c["peak_rss_mib"] = _e2e("MiB", "host", 0.25)
    c["failure_rate"] = _e2e("share", "host", None, gated=False)
    # The medians are printed but not gated: every workload mixes engines
    # whose downtimes form separate clusters (post-copy and JAVMM below,
    # Xen and stop-and-copy above on faulted_striped), the median falls in
    # the gap between two of them, and it jumps by up to 14% between
    # seeds. The geometric means weigh every clean run alike and move by
    # under 2%; the totals by under 1%. A modelling change beyond 5-10%
    # shows.
    c["sim_downtime_ms_p50"] = _e2e("ms", "sim", None, gated=False)
    c["sim_migration_s_p50"] = _e2e("s", "sim", None, gated=False)
    c["sim_downtime_ms_gmean"] = _e2e("ms", "sim", 0.1)
    c["sim_migration_s_gmean"] = _e2e("s", "sim", 0.1)
    c["sim_wire_gib"] = _e2e("GiB", "sim", 0.05)
    c["sim_daemon_cpu_s"] = _e2e("s", "sim", 0.05)
    c["sim_fault_stall_s"] = _e2e("s", "sim", None, gated=False)

    # ---- Per layer (traced pass). ----
    setup = "setup_s, wall_s on large_vm"
    c["core.setup_ms"] = _layer("ms", "host", setup)
    c["core.teardown_ms"] = _layer("ms", "host", setup)
    guest = ("wall_s, scenario_ms_p50, sim_s_per_host_s on paper_precopy; "
             "flat on large_vm")
    c["guest.warmup_ms"] = _layer("ms", "host", guest)
    c["guest.post_ms"] = _layer("ms", "host", guest)
    for phase in ("warmup", "post"):
        for engine in ENGINES:
            c["guest.%s_host_us_per_sim_s.%s" % (phase, engine)] = _layer(
                "us/s", "host", guest, base="simulated %s seconds" % phase)
    mem = "guest.warmup_ms / guest.post_ms on paper_precopy"
    for phase in ("warmup", "post"):
        c["mem.write_runs.%s" % phase] = _layer("count", "sim", mem)
        c["mem.pages_written.%s" % phase] = _layer("count", "sim", mem)
        c["mem.pte_lookups.%s" % phase] = _layer("count", "sim", mem)
        c["mem.pages_per_probe.%s" % phase] = _layer(
            "pages", "sim", mem, base="mem.pte_lookups.%s" % phase,
            better="higher")
    jvm = "guest.warmup_ms on paper_precopy"
    c["jvm.minor_gcs"] = _layer("count", "sim", jvm)
    c["jvm.full_gcs"] = _layer("count", "sim", jvm)
    c["jvm.young_resizes"] = _layer("count", "sim", jvm)
    lkm = "migration.migrate_ms.javmm on paper_precopy and large_vm"
    c["guest.lkm_ptes_walked"] = _layer("count", "sim", lkm)
    c["guest.lkm_pfn_cache_bytes"] = _layer("bytes", "sim", lkm)
    c["guest.lkm_bitmap_bytes"] = _layer("bytes", "sim", lkm)
    mig = "wall_s on faulted_striped and large_vm"
    for engine in ENGINES:
        c["migration.migrate_ms.%s" % engine] = _layer("ms", "host", mig)
    c["migration.host_ns_per_page_sent"] = _layer(
        "ns", "host", mig, base="migration.pages_sent")
    work = "migration.migrate_ms on faulted_striped and large_vm"
    for name in ("iterations", "pages_sent", "harvests", "pages_harvested",
                 "dirty_word_scans", "page_peeks", "bursts_flushed",
                 "allocations", "buffer_reuses"):
        c["migration." + name] = _layer("count", "sim", work)
    c["migration.reuse_ratio"] = _layer(
        "share", "sim", work,
        base="migration.buffer_reuses + migration.allocations",
        better="higher")
    stall = "sim_fault_stall_s, sim_downtime_ms_p50 on faulted_striped"
    c["migration.demand_faults"] = _layer("count", "sim", stall)
    c["migration.fault_stall_s"] = _layer("s", "sim", stall)
    c["migration.fallback_runs"] = _layer("count", "sim", stall)
    c["migration.aborted_runs"] = _layer(
        "count", "sim", "sim_* medians (excluded runs) on faulted_striped")
    net = ("sim_migration_s_p50, wall_s on faulted_striped; "
           "flat on paper_precopy")
    c["net.pages_sharded"] = _layer("count", "sim", net)
    c["net.retry_wire_bytes"] = _layer("bytes", "sim", net)
    c["net.useful_wire_ratio"] = _layer("share", "sim", net,
                                        base="wire bytes", better="higher")
    c["net.burst_faults"] = _layer("count", "sim", net)
    c["net.control_losses"] = _layer("count", "sim", net)
    c["net.control_ok"] = _layer("count", "sim", net, better="higher")
    c["net.backoff_s"] = _layer("s", "sim", net)
    c["faults.degraded_runs"] = _layer(
        "count", "sim", "sim_downtime_ms_p50 on faulted_striped")
    c["trace.events"] = _layer(
        "count", "sim", "migration.migrate_ms on faulted_striped")
    c["trace.span_coverage"] = _layer(
        "share", "host", "trustworthiness of every per-layer time",
        base="traced scenario wall time", better="higher")
    c["trace.overhead_s"] = _layer(
        "s", "host", "traced wall_s minus untraced wall_s")
    return c


CATALOG = _build_catalog()


def gated_metrics(level):
    return [name for name, m in CATALOG.items()
            if m.level == level and m.gated]


# ---- Statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def gmean(values):
    """Geometric mean of positive values (durations of completed
    migrations), 0 for none."""
    return statistics.geometric_mean(values) if values else 0.0


def _rank(n, level):
    # Rounded before the ceiling so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(level * n / 100.0, 9)))


def percentile(values, level):
    """Nearest-rank percentile: the smallest sample with at least `level`
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), level) - 1]


def beyond(n, level):
    """Samples ranked above the nearest-rank `level` percentile of n."""
    return n - _rank(n, level)


def tail_level(n):
    """Highest level in TAIL_LEVELS with at least MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    for level in TAIL_LEVELS:
        if beyond(n, level) >= MIN_BEYOND:
            return level
    return None


def ratio(numerator, base):
    """numerator / base, 0 when the base is empty."""
    return numerator / base if base else 0.0


# ---- Run records ------------------------------------------------------------

def record_failed(rec):
    """RunRecord::failed(), plus a run whose audit never ran: a thrown run,
    a completed run that did not verify, or an audit that failed."""
    if not rec["ran"]:
        return True
    if rec["completed"] and not rec["verified"]:
        return True
    return not (rec["audit_ran"] and rec["audit_ok"])


def record_clean(rec):
    """Enters the sim_* medians: completed, verified, audited, and neither
    aborted, fallen back nor degraded (bench::MetricSummary's rule, plus
    degraded runs)."""
    return (not record_failed(rec) and rec["completed"]
            and not rec["fell_back"] and not rec["degraded"])


def sim_seconds(scenario, rec):
    """Simulated guest seconds one scenario advances: warm-up, the
    migration, cool-down."""
    if not rec["ran"]:
        return 0.0
    return (scenario["warmup_ns"] + rec["total_time_ns"]
            + scenario["cooldown_ns"]) / 1e9


def sim_metrics(export):
    """The sim_* end-to-end metrics of one pass's export records."""
    clean = [r for r in export if record_clean(r)]
    ran = [r for r in export if r["ran"]]
    downtime_ms = [r["downtime_ns"] / 1e6 for r in clean]
    migration_s = [r["total_time_ns"] / 1e9 for r in clean]
    return {
        "sim_downtime_ms_p50": median(downtime_ms),
        "sim_migration_s_p50": median(migration_s),
        "sim_downtime_ms_gmean": gmean(downtime_ms),
        "sim_migration_s_gmean": gmean(migration_s),
        "sim_wire_gib": sum(r["wire_bytes"] for r in ran) / 2.0**30,
        "sim_daemon_cpu_s": sum(r["cpu_ns"] for r in ran) / 1e9,
        "sim_fault_stall_s": sum(r["fault_stall_ns"] for r in ran) / 1e9,
    }


def outcome_counts(export):
    return {
        "aborted": sum(1 for r in export if r["ran"] and not r["completed"]),
        "fell_back": sum(1 for r in export if r["ran"] and r["fell_back"]),
        "degraded": sum(1 for r in export if r["ran"] and r["degraded"]),
        "failed": sum(1 for r in export if record_failed(r)),
    }


def timed_metrics(scenarios, timed_rows, reps, exports, setup_rows,
                  peak_rss_kib, min_samples):
    """End-to-end metrics of a --trace 0 run.

    `reps` are the timed pass's reps.jsonl rows and `exports[rep]` each
    repetition's parsed export. The sim_* metrics pool the first repetition
    of every list, so they depend only on the seed. `min_samples` is the
    pooled sample count every run is guaranteed (scenarios x minimum
    repetitions): the tail level is chosen from it, not from how many
    repetitions this run happened to fit, so it is the same on every run.
    """
    per_scenario_ms = [row["host_ns"] / 1e6 for row in timed_rows]
    level = tail_level(min_samples)
    first_of_list = {}
    for r in reps:
        first_of_list.setdefault(r["list"], r["rep"])
    pooled = [rec for rep in sorted(first_of_list.values())
              for rec in exports[rep]]
    sim_rates = [ratio(sum(sim_seconds(s, rec) for s, rec
                           in zip(scenarios, exports[r["rep"]])),
                       r["wall_ns"] / 1e9) for r in reps]
    metrics = {
        "wall_s": median([r["wall_ns"] / 1e9 for r in reps]),
        "scenario_ms_p50": median(per_scenario_ms),
        "scenario_ms_tail": percentile(per_scenario_ms, level),
        "sim_s_per_host_s": median(sim_rates),
        "setup_s": median([row["setup_ns"] / 1e9 for row in setup_rows]),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    metrics.update(sim_metrics(pooled))
    notes = {
        "scenario_ms_tail": "p%g of %d samples, %d beyond" % (
            level, len(per_scenario_ms), beyond(len(per_scenario_ms), level)),
        "sim_downtime_ms_p50": "%d clean of %d runs" % (
            sum(1 for rec in pooled if record_clean(rec)), len(pooled)),
    }
    for name in ("sim_migration_s_p50", "sim_downtime_ms_gmean",
                 "sim_migration_s_gmean"):
        notes[name] = notes["sim_downtime_ms_p50"]
    return metrics, notes


# ---- Traced pass ------------------------------------------------------------

LAYER_SPANS = ("core.config", "core.setup", "guest.warmup",
               "migration.migrate", "guest.post", "runner.collect",
               "core.teardown")


def check_spans(spans):
    """Structural problems in the span log: unknown names, unended spans,
    children outside their parent, root spans with a parent."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append("span %d (%s) ends before it starts"
                            % (s["id"], s["name"]))
        if s["name"] == "scenario":
            if s["parent"] != -1:
                problems.append("root span %d has a parent" % s["id"])
            continue
        if s["name"] not in LAYER_SPANS:
            problems.append("span %d has unknown name %s"
                            % (s["id"], s["name"]))
        parent = by_id.get(s["parent"])
        if parent is None or parent["run"] != s["run"]:
            problems.append("span %d (%s) has no parent in its run"
                            % (s["id"], s["name"]))
        elif (s["start_ns"] < parent["start_ns"]
              or s["end_ns"] > parent["end_ns"]):
            problems.append("span %d (%s) escapes its parent"
                            % (s["id"], s["name"]))
    return problems


def span_durations(spans):
    """{run: {name: ns}} plus the root span's duration under 'scenario'."""
    out = {}
    for s in spans:
        per_run = out.setdefault(s["run"], {})
        per_run[s["name"]] = (per_run.get(s["name"], 0)
                              + s["end_ns"] - s["start_ns"])
    return out


def span_coverage(spans):
    """Share of root (scenario) span time covered by its child spans."""
    root = sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["name"] == "scenario")
    covered = sum(s["end_ns"] - s["start_ns"] for s in spans
                  if s["name"] != "scenario")
    return ratio(covered, root)


def _perf_delta(later, earlier, field):
    return later["guest"][field] - earlier["guest"][field]


def layer_metrics(scenarios, counts, spans, exports, timed_reps,
                  traced_reps):
    """Per-layer metrics of a --trace 1 run. Host times are summed over the
    scenario list per traced repetition and the median over repetitions is
    reported; counts are deterministic, so repetition 0 (list 0) gives
    them."""
    durations = span_durations(spans)
    by_rep = {}
    for c in counts:
        by_rep.setdefault(c["rep"], []).append(c)
    reps = sorted(by_rep)

    def host_ns(rep, name, engine=None):
        return sum(durations.get(c["run"], {}).get(name, 0)
                   for c in by_rep[rep]
                   if engine is None or scenarios[c["i"]]["engine"] == engine)

    def per_rep(fn):
        return median([fn(rep) for rep in reps])

    first = by_rep[reps[0]]
    m = {
        "core.setup_ms": per_rep(lambda r: host_ns(r, "core.setup") / 1e6),
        "core.teardown_ms": per_rep(
            lambda r: host_ns(r, "core.teardown") / 1e6),
        "guest.warmup_ms": per_rep(lambda r: host_ns(r, "guest.warmup") / 1e6),
        "guest.post_ms": per_rep(lambda r: host_ns(r, "guest.post") / 1e6),
    }
    phases = {"warmup": ("after_setup", "after_warmup", "guest.warmup"),
              "post": ("after_migrate", "after_post", "guest.post")}
    for phase, (begin, end, span) in phases.items():
        for engine in ENGINES:
            def us_per_sim_s(rep, engine=engine, begin=begin, end=end,
                             span=span):
                sim_s = sum(c[end]["sim_ns"] - c[begin]["sim_ns"]
                            for c in by_rep[rep]
                            if scenarios[c["i"]]["engine"] == engine) / 1e9
                return ratio(host_ns(rep, span, engine) / 1e3, sim_s)
            m["guest.%s_host_us_per_sim_s.%s" % (phase, engine)] = per_rep(
                us_per_sim_s)
        for field in ("write_runs", "pages_written", "pte_lookups"):
            m["mem.%s.%s" % (field, phase)] = sum(
                _perf_delta(c[end], c[begin], field) for c in first)
        m["mem.pages_per_probe.%s" % phase] = ratio(
            m["mem.pages_written.%s" % phase], m["mem.pte_lookups.%s" % phase])

    m["jvm.minor_gcs"] = sum(c["minor_gcs"] for c in first)
    m["jvm.full_gcs"] = sum(c["full_gcs"] for c in first)
    m["jvm.young_resizes"] = sum(c["young_resizes"] for c in first)
    m["guest.lkm_ptes_walked"] = sum(c["lkm_ptes_walked"] for c in first)
    m["guest.lkm_pfn_cache_bytes"] = sum(c["lkm_pfn_cache_bytes"]
                                         for c in first)
    m["guest.lkm_bitmap_bytes"] = sum(c["lkm_bitmap_bytes"] for c in first)

    for engine in ENGINES:
        m["migration.migrate_ms.%s" % engine] = per_rep(
            lambda r, e=engine: host_ns(r, "migration.migrate", e) / 1e6)
    m["migration.host_ns_per_page_sent"] = per_rep(lambda r: ratio(
        host_ns(r, "migration.migrate"),
        sum(rec["pages_sent"] for rec in exports[r] if rec["ran"])))
    export = exports[reps[0]]
    ran = [r for r in export if r["ran"]]
    m["migration.iterations"] = sum(r["iterations"] for r in ran)
    m["migration.pages_sent"] = sum(r["pages_sent"] for r in ran)
    for field in ("harvests", "pages_harvested", "dirty_word_scans",
                  "page_peeks", "bursts_flushed", "allocations",
                  "buffer_reuses"):
        m["migration." + field] = sum(c["engine"][field] for c in first)
    m["migration.reuse_ratio"] = ratio(
        m["migration.buffer_reuses"],
        m["migration.buffer_reuses"] + m["migration.allocations"])

    outcomes = outcome_counts(export)
    m["migration.demand_faults"] = sum(r["demand_faults"] for r in ran)
    m["migration.fault_stall_s"] = sum(r["fault_stall_ns"] for r in ran) / 1e9
    m["migration.fallback_runs"] = outcomes["fell_back"]
    m["migration.aborted_runs"] = outcomes["aborted"]
    m["net.pages_sharded"] = sum(c["engine"]["pages_sharded"] for c in first)
    wire = sum(r["wire_bytes"] for r in ran)
    retry = sum(r["retry_wire_bytes"] for r in ran)
    m["net.retry_wire_bytes"] = retry
    m["net.useful_wire_ratio"] = ratio(wire - retry, wire)
    m["net.burst_faults"] = sum(r["burst_faults"] for r in ran)
    m["net.control_losses"] = sum(r["control_losses"] for r in ran)
    m["net.control_ok"] = sum(c["control_rounds_ok"] for c in first)
    m["net.backoff_s"] = sum(r["backoff_ns"] for r in ran) / 1e9
    m["faults.degraded_runs"] = outcomes["degraded"]
    m["trace.events"] = sum(c["engine"]["trace_events"] for c in first)
    m["trace.span_coverage"] = span_coverage(spans)
    traced_wall = median([r["wall_ns"] for r in traced_reps])
    m["trace.overhead_s"] = (
        traced_wall - median([r["wall_ns"] for r in timed_reps])) / 1e9
    return m
