// Copyright (c) 2026 The JAVMM Reproduction Authors.
//
// perfbench_driver: the measuring half of the repo benchmark. It runs one
// workload single-threaded and closed-loop (the next scenario starts when
// the previous one returns) and writes raw records into --out;
// perfbench/run.py turns them into metrics.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//
// The workload seed expands into `lists` scenario lists: the same scenarios,
// each list with its own derived RunOptions.seed per scenario. Repetition r
// runs list r % lists, so a run pools several seeds per scenario (steadier
// order statistics) and every repetition past the first `lists` re-runs a
// list already seen (the same-seed determinism check).
//
// --trace=0 runs two passes:
//   timed   runs lists through the public ScenarioRunner::RunOne, tracing
//           off, until --seconds is spent and at least lists + 1
//           repetitions ran. Per-scenario host time goes to timed.jsonl,
//           each repetition's RunReport export to export.timed.<rep>.jsonl;
//   setup   then constructs and destroys list 0's MigrationLabs kSetupReps
//           times, timing construction and destruction (setup.jsonl).
// --trace=1 alternates a timed repetition (the untraced reference) with a
// traced one of the same list: the scenarios driven through the public
// layer calls RunScenario makes, with a span around each call (spans.jsonl)
// and counts read at the same boundaries (counts.jsonl). Traced exports go
// to export.traced.<rep>.jsonl and must match the timed ones byte for byte.
//
// Every repetition appends {"pass","rep","list","wall_ns"} to reps.jsonl;
// the last line of stdout is {"peak_rss_kib":N,"scenarios":N,"lists":N}.

// lint: banned-call-ok (wall-clock here profiles the host, never simulated results)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/guest/lkm.h"
#include "src/migration/baselines.h"
#include "src/runner/runner.h"

using namespace javmm;  // NOLINT

namespace {

using HostClock = std::chrono::steady_clock;

int64_t NanosSince(HostClock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - origin).count();
}

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  std::vector<Scenario> scenarios;
  // Distinct seeded lists a run covers; fewer for the workloads whose list
  // is long or already spans many seeds.
  int lists = 1;
};

// Independent per-scenario RNG streams from one workload seed (SplitMix64
// finaliser over seed and position).
uint64_t ScenarioSeed(uint64_t workload_seed, uint64_t index) {
  uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL + (index + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// "bw:..;loss:.." -> "ch1:bw:..;ch1:loss:..": the disturbance rides sub-link
// 1 only, as in abl_channel_sweep's striped regimes.
std::string PinToChannel1(const std::string& spec) {
  std::string out;
  std::stringstream clauses(spec);
  std::string clause;
  while (std::getline(clauses, clause, ';')) {
    if (!out.empty()) {
      out += ';';
    }
    out += "ch1:" + clause;
  }
  return out;
}

Scenario MakeScenario(const std::string& label, const char* workload, EngineKind engine) {
  Scenario scenario;
  scenario.label = label;
  scenario.spec = Workloads::Get(workload);
  scenario.engine = engine;
  return scenario;
}

constexpr EngineKind kAllEngines[] = {EngineKind::kXenPrecopy, EngineKind::kJavmm,
                                      EngineKind::kStopAndCopy, EngineKind::kPostcopy};

// The nine SPECjvm2008 proxies x {Xen, JAVMM, Xen + hotness} at the paper's
// phasing (RunOptions defaults) on the default 2 GiB guest and healthy link.
Workload PaperPrecopy() {
  Workload w;
  for (const WorkloadSpec& spec : Workloads::All()) {
    for (const EngineKind engine : {EngineKind::kXenPrecopy, EngineKind::kJavmm}) {
      w.scenarios.push_back(
          MakeScenario(spec.name + "/" + EngineKindName(engine), spec.name.c_str(), engine));
    }
    Scenario hot = MakeScenario(spec.name + "/Xen+hot", spec.name.c_str(), EngineKind::kXenPrecopy);
    hot.options.hotness_spec = "rate:1,score:8,decay:1,budget:500ms";
    w.scenarios.push_back(std::move(hot));
  }
  w.lists = 4;
  return w;
}

// crypto and derby x the golden battery's six fault regimes x all four
// engines x {1, 4} channels, 10 s warm-up and 5 s cool-down. Striped runs pin
// the disturbance to sub-link 1.
Workload FaultedStriped() {
  struct Regime {
    const char* name;
    const char* spec;
  };
  const Regime kRegimes[] = {
      {"healthy", ""},
      {"bw-collapse", "bw:0s-60s@0.3"},
      {"lossy-ctl", "loss:0.4"},
      {"outage", "out:1s-2s"},
      {"lat-spike", "lat:0s-30s+20ms;loss:0.2"},
      {"combined", "bw:0s-60s@0.5;loss:0.4;out:1s-2500ms"},
  };
  Workload w;
  for (const char* workload : {"crypto", "derby"}) {
    for (const Regime& regime : kRegimes) {
      for (const EngineKind engine : kAllEngines) {
        for (const int channels : {1, 4}) {
          Scenario scenario =
              MakeScenario(std::string(workload) + "/" + regime.name + "/" +
                               std::to_string(channels) + "ch/" + EngineKindName(engine),
                           workload, engine);
          scenario.options.warmup = Duration::Seconds(10);
          scenario.options.cooldown = Duration::Seconds(5);
          scenario.options.channels = channels;
          scenario.options.fault_spec = channels > 1 ? PinToChannel1(regime.spec) : regime.spec;
          w.scenarios.push_back(std::move(scenario));
        }
      }
    }
  }
  w.lists = 3;
  return w;
}

// An 8 GiB guest x {derby, crypto, scimark} x all four engines, 10 s warm-up
// and 5 s cool-down: host work scales with memory, not dirty rate.
Workload LargeVm() {
  Workload w;
  for (const char* workload : {"derby", "crypto", "scimark"}) {
    for (const EngineKind engine : kAllEngines) {
      Scenario scenario =
          MakeScenario(std::string(workload) + "/8g/" + EngineKindName(engine), workload, engine);
      scenario.options.warmup = Duration::Seconds(10);
      scenario.options.cooldown = Duration::Seconds(5);
      scenario.options.lab.vm_bytes = 8 * kGiB;
      w.scenarios.push_back(std::move(scenario));
    }
  }
  w.lists = 8;
  return w;
}

Workload BuildWorkload(const std::string& name) {
  Workload w;
  if (name == "paper_precopy") {
    w = PaperPrecopy();
  } else if (name == "faulted_striped") {
    w = FaultedStriped();
  } else if (name == "large_vm") {
    w = LargeVm();
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (paper_precopy, faulted_striped, large_vm)");
  }
  return w;
}

// The workload's `lists` lists, scenario i of list l seeded from position
// l * size + i.
std::vector<std::vector<Scenario>> SeededLists(const Workload& w, uint64_t seed) {
  std::vector<std::vector<Scenario>> lists;
  for (int l = 0; l < w.lists; ++l) {
    std::vector<Scenario> list = w.scenarios;
    for (size_t i = 0; i < list.size(); ++i) {
      list[i].options.seed = ScenarioSeed(seed, static_cast<uint64_t>(l) * list.size() + i);
    }
    lists.push_back(std::move(list));
  }
  return lists;
}

const char* EngineKey(EngineKind kind) {
  switch (kind) {
    case EngineKind::kXenPrecopy:
      return "xen";
    case EngineKind::kJavmm:
      return "javmm";
    case EngineKind::kStopAndCopy:
      return "stopcopy";
    case EngineKind::kPostcopy:
      return "postcopy";
  }
  return "?";
}

// ---- The lab configuration RunScenario derives from a Scenario ---------------
//
// Mirrors src/runner/scenario.cc; the traced pass's byte-identity check
// against the timed pass fails if the two drift apart.
LabConfig LabConfigFor(const Scenario& scenario) {
  LabConfig config = scenario.options.lab;
  config.seed = scenario.options.seed;
  config.migration.application_assisted = scenario.engine == EngineKind::kJavmm;
  if (scenario.options.channels <= 0) {
    throw std::runtime_error("channels must be >= 1");
  }
  config.migration.channels = scenario.options.channels;
  if (!scenario.options.fault_spec.empty()) {
    std::string error;
    FaultPlan shared;
    std::vector<FaultPlan> per_channel;
    if (!FaultPlan::ParseMulti(scenario.options.fault_spec, scenario.options.channels, &shared,
                               &per_channel, &error)) {
      throw std::runtime_error("bad fault spec '" + scenario.options.fault_spec + "': " + error);
    }
    config.migration.faults = shared;
    config.migration.channel_faults = per_channel;
  }
  std::string error;
  HotnessConfig hotness;
  if (!HotnessConfig::Parse(scenario.options.hotness_spec, &hotness, &error)) {
    throw std::runtime_error("bad hotness spec '" + scenario.options.hotness_spec + "': " + error);
  }
  if (hotness.enabled && scenario.engine != EngineKind::kXenPrecopy &&
      scenario.engine != EngineKind::kJavmm) {
    throw std::runtime_error("hotness ordering is pre-copy only");
  }
  config.migration.hotness = hotness;
  return config;
}

// ---- Output ------------------------------------------------------------------

class OutDir {
 public:
  explicit OutDir(std::string path) : path_(std::move(path)) {}

  std::ofstream Open(const std::string& name, bool append = false) const {
    std::ofstream os(path_ + "/" + name, append ? std::ios::app : std::ios::trunc);
    if (!os) {
      throw std::runtime_error("cannot write " + path_ + "/" + name);
    }
    return os;
  }

 private:
  std::string path_;
};

void WriteRep(const OutDir& out, const char* pass, int rep, int list, int64_t wall_ns) {
  std::ofstream os = out.Open("reps.jsonl", /*append=*/true);
  os << "{\"pass\":\"" << pass << "\",\"rep\":" << rep << ",\"list\":" << list
     << ",\"wall_ns\":" << wall_ns << "}\n";
}

void WriteExport(const OutDir& out, const char* pass, int rep, const RunReport& report) {
  std::ofstream os = out.Open(std::string("export.") + pass + "." + std::to_string(rep) + ".jsonl");
  report.ExportJsonLines(os);
}

void WriteScenarioIndex(const OutDir& out, const std::vector<Scenario>& scenarios) {
  std::ofstream os = out.Open("scenarios.jsonl");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    os << "{\"i\":" << i << ",\"label\":\"" << s.label << "\",\"engine\":\""
       << EngineKey(s.engine) << "\",\"warmup_ns\":" << s.options.warmup.nanos()
       << ",\"cooldown_ns\":" << s.options.cooldown.nanos() << "}\n";
  }
}

// ---- Set-up pass -------------------------------------------------------------

constexpr int kSetupReps = 5;

void SetupPass(const OutDir& out, const std::vector<Scenario>& scenarios) {
  std::ofstream os = out.Open("setup.jsonl");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t setup_ns = 0;
    int64_t teardown_ns = 0;
    for (const Scenario& scenario : scenarios) {
      const LabConfig config = LabConfigFor(scenario);
      HostClock::time_point t0 = HostClock::now();
      auto lab = std::make_unique<MigrationLab>(scenario.spec, config);
      setup_ns += NanosSince(t0);
      t0 = HostClock::now();
      lab.reset();
      teardown_ns += NanosSince(t0);
    }
    os << "{\"rep\":" << rep << ",\"setup_ns\":" << setup_ns << ",\"teardown_ns\":" << teardown_ns
       << "}\n";
  }
}

// ---- Timed pass --------------------------------------------------------------

// One repetition through the public runner path, tracing off. Returns the
// repetition's wall time.
int64_t TimedRep(const OutDir& out, const std::vector<Scenario>& scenarios, int rep, int list) {
  RunReport report;
  std::vector<int64_t> host_ns;
  const HostClock::time_point rep_start = HostClock::now();
  for (const Scenario& scenario : scenarios) {
    const HostClock::time_point t0 = HostClock::now();
    report.runs.push_back(ScenarioRunner::RunOne(scenario));
    host_ns.push_back(NanosSince(t0));
  }
  const int64_t wall_ns = NanosSince(rep_start);
  std::ofstream os = out.Open("timed.jsonl", /*append=*/true);
  for (size_t i = 0; i < host_ns.size(); ++i) {
    os << "{\"rep\":" << rep << ",\"i\":" << i << ",\"host_ns\":" << host_ns[i] << "}\n";
  }
  WriteRep(out, "timed", rep, list, wall_ns);
  WriteExport(out, "timed", rep, report);
  return wall_ns;
}

// ---- Traced pass -------------------------------------------------------------

// In-memory span log, written out when the pass ends. Spans of one scenario
// run share `run` (rep * scenarios + index).
class SpanLog {
 public:
  struct Span {
    int64_t run = 0;
    int id = 0;
    int parent = -1;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanLog(HostClock::time_point origin) : origin_(origin) {}

  int Begin(int64_t run, const char* name, int parent) {
    Span span;
    span.run = run;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.name = name;
    span.start_ns = NanosSince(origin_);
    spans_.push_back(span);
    return span.id;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NanosSince(origin_); }

  void Write(std::ostream& os) const {
    for (const Span& s : spans_) {
      os << "{\"run\":" << s.run << ",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, int64_t run, const char* name, int parent)
      : log_(log), id_(log->Begin(run, name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { log_->End(id_); }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Counts read at the traced pass's layer boundaries.
struct Boundary {
  int64_t sim_ns = 0;
  PerfCounters guest;
};

struct LayerCounts {
  Boundary after_setup, after_warmup, after_migrate, after_post;
  int64_t minor_gcs = 0;
  int64_t full_gcs = 0;
  int64_t young_resizes = 0;
  int64_t lkm_ptes_walked = 0;
  int64_t lkm_pfn_cache_bytes = 0;
  int64_t lkm_bitmap_bytes = 0;
  PerfCounters engine;  // The migration's own counters, before the guest fold.
  int64_t control_rounds_ok = 0;
};

Boundary ReadBoundary(MigrationLab& lab) {
  Boundary b;
  b.sim_ns = lab.clock().now().nanos();
  b.guest = lab.guest_perf();
  return b;
}

// RunScenario's sequence of public calls, one span per layer call.
RunOutput TracedRunScenario(const Scenario& scenario, SpanLog* log, int64_t run, int root,
                            LayerCounts* counts) {
  LabConfig config;
  {
    ScopedSpan span(log, run, "core.config", root);
    config = LabConfigFor(scenario);
  }
  std::unique_ptr<MigrationLab> lab;
  {
    ScopedSpan span(log, run, "core.setup", root);
    lab = std::make_unique<MigrationLab>(scenario.spec, config);
  }
  counts->after_setup = ReadBoundary(*lab);
  {
    ScopedSpan span(log, run, "guest.warmup", root);
    lab->Run(scenario.options.warmup);
  }
  counts->after_warmup = ReadBoundary(*lab);

  RunOutput out;
  out.young_at_migration = lab->app().heap().young_committed_bytes();
  out.old_at_migration = lab->app().heap().old_used_bytes();
  const TimePoint migration_start = lab->clock().now();
  if (config.analyzer_probe_faults) {
    const FaultPlan& probe_plan = config.migration.channel_faults.empty()
                                      ? config.migration.faults
                                      : config.migration.channel_faults.front();
    if (probe_plan.enabled()) {
      lab->mutable_analyzer().AttachProbeFaults(probe_plan, migration_start);
    }
  }
  {
    ScopedSpan span(log, run, "migration.migrate", root);
    switch (scenario.engine) {
      case EngineKind::kXenPrecopy:
      case EngineKind::kJavmm:
        out.result = lab->Migrate();
        break;
      case EngineKind::kStopAndCopy: {
        StopAndCopyEngine engine(&lab->guest(), lab->config().migration);
        out.result = engine.Migrate();
        break;
      }
      case EngineKind::kPostcopy: {
        PostcopyEngine::Config pc;
        pc.base = lab->config().migration;
        PostcopyEngine engine(&lab->guest(), pc);
        const PostcopyResult r = engine.Migrate();
        out.result = r.common;
        out.demand_faults = r.demand_faults;
        out.fault_stall = r.fault_stall;
        out.degradation_window = r.degradation_window;
        break;
      }
    }
  }
  counts->after_migrate = ReadBoundary(*lab);
  {
    ScopedSpan span(log, run, "guest.post", root);
    lab->Run(scenario.options.cooldown);
  }
  counts->after_post = ReadBoundary(*lab);
  {
    ScopedSpan span(log, run, "runner.collect", root);
    out.throughput = lab->analyzer().series();
    out.observed_downtime = lab->analyzer().ObservedDowntime(migration_start, lab->clock().now());
    counts->engine = out.result.perf;
    out.result.perf.Add(lab->guest_perf());
    const GcLog& gc = lab->app().heap().gc_log();
    counts->minor_gcs = gc.minor_count();
    counts->full_gcs = static_cast<int64_t>(gc.full.size());
    for (const MinorGcResult& minor : gc.minor) {
      counts->young_resizes += minor.young_resized ? 1 : 0;
    }
    const Lkm* lkm = lab->guest().lkm();
    counts->lkm_ptes_walked = lkm != nullptr ? lkm->total_ptes_walked() : 0;
    counts->lkm_pfn_cache_bytes = out.result.lkm_pfn_cache_bytes;
    counts->lkm_bitmap_bytes = out.result.lkm_bitmap_bytes;
    counts->control_rounds_ok = out.result.control_rounds_ok;
  }
  {
    ScopedSpan span(log, run, "core.teardown", root);
    lab.reset();
  }
  return out;
}

void WriteBoundary(std::ostream& os, const char* key, const Boundary& b) {
  os << ",\"" << key << "\":{\"sim_ns\":" << b.sim_ns << ",\"guest\":" << b.guest.ToJson() << "}";
}

void WriteCounts(std::ostream& os, int rep, size_t i, int64_t run, const LayerCounts& counts) {
  os << "{\"rep\":" << rep << ",\"i\":" << i << ",\"run\":" << run;
  WriteBoundary(os, "after_setup", counts.after_setup);
  WriteBoundary(os, "after_warmup", counts.after_warmup);
  WriteBoundary(os, "after_migrate", counts.after_migrate);
  WriteBoundary(os, "after_post", counts.after_post);
  os << ",\"engine\":" << counts.engine.ToJson() << ",\"minor_gcs\":" << counts.minor_gcs << ",\"full_gcs\":" << counts.full_gcs
     << ",\"young_resizes\":" << counts.young_resizes
     << ",\"lkm_ptes_walked\":" << counts.lkm_ptes_walked
     << ",\"lkm_pfn_cache_bytes\":" << counts.lkm_pfn_cache_bytes
     << ",\"lkm_bitmap_bytes\":" << counts.lkm_bitmap_bytes
     << ",\"control_rounds_ok\":" << counts.control_rounds_ok << "}\n";
}

int64_t TracedRep(const OutDir& out, const std::vector<Scenario>& scenarios, int rep, int list,
                  SpanLog* log, std::ostream& counts_os) {
  RunReport report;
  std::vector<LayerCounts> counts(scenarios.size());
  const int64_t first_run = static_cast<int64_t>(rep) * static_cast<int64_t>(scenarios.size());
  const HostClock::time_point rep_start = HostClock::now();
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const int64_t run = first_run + static_cast<int64_t>(i);
    RunRecord rec;
    {
      ScopedSpan root(log, run, "scenario", -1);
      rec.scenario = scenarios[i];
      try {
        rec.output = TracedRunScenario(scenarios[i], log, run, root.id(), &counts[i]);
        rec.ran = true;
      } catch (const std::exception& e) {
        rec.error = e.what();
      }
    }
    report.runs.push_back(std::move(rec));
  }
  const int64_t wall_ns = NanosSince(rep_start);
  for (size_t i = 0; i < counts.size(); ++i) {
    WriteCounts(counts_os, rep, i, first_run + static_cast<int64_t>(i), counts[i]);
  }
  WriteRep(out, "traced", rep, list, wall_ns);
  WriteExport(out, "traced", rep, report);
  return wall_ns;
}

// The process's resident high-water mark. Read after the guaranteed
// repetitions, so it does not depend on how many more fit in --seconds.
int64_t PeakRssKib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--out") {
      args.out = value;
      have_out = true;
    } else {
      throw std::runtime_error("unknown flag " + arg);
    }
  }
  if (!have_workload || !have_out || (args.trace != 0 && args.trace != 1)) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload = BuildWorkload(args.workload);
  const std::vector<std::vector<Scenario>> lists = SeededLists(workload, args.seed);
  const OutDir out(args.out);
  WriteScenarioIndex(out, workload.scenarios);

  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const HostClock::time_point start = HostClock::now();
  int64_t peak_rss_kib = 0;
  if (args.trace == 0) {
    int64_t longest_ns = 0;
    for (int rep = 0;; ++rep) {
      if (rep > workload.lists && NanosSince(start) + longest_ns > budget_ns) {
        break;
      }
      const int list = rep % workload.lists;
      longest_ns = std::max(longest_ns, TimedRep(out, lists[list], rep, list));
      if (rep == workload.lists) {
        peak_rss_kib = PeakRssKib();
      }
    }
    // After the timed pass, so labs are built in the same warmed-up process
    // state RunScenario builds them in.
    SetupPass(out, lists[0]);
  } else {
    SpanLog log(start);
    std::ofstream counts_os = out.Open("counts.jsonl");
    int64_t longest_ns = 0;
    for (int rep = 0;; ++rep) {
      if (rep > 0 && NanosSince(start) + longest_ns > budget_ns) {
        break;
      }
      const int list = rep % workload.lists;
      // Alternate which pass goes first, so neither gets the other's warmed
      // caches every time and the overhead estimate stays unbiased.
      int64_t pair_ns = 0;
      if (rep % 2 == 0) {
        pair_ns += TimedRep(out, lists[list], rep, list);
        pair_ns += TracedRep(out, lists[list], rep, list, &log, counts_os);
      } else {
        pair_ns += TracedRep(out, lists[list], rep, list, &log, counts_os);
        pair_ns += TimedRep(out, lists[list], rep, list);
      }
      longest_ns = std::max(longest_ns, pair_ns);
    }
    std::ofstream spans_os = out.Open("spans.jsonl");
    log.Write(spans_os);
  }

  std::printf("{\"peak_rss_kib\":%lld,\"scenarios\":%zu,\"lists\":%d}\n",
              static_cast<long long>(peak_rss_kib != 0 ? peak_rss_kib : PeakRssKib()),
              workload.scenarios.size(), workload.lists);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
