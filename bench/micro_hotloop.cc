// Hot-loop microbenchmark: raw generator -> pager -> replacement-policy
// throughput (host wall-clock, not simulated time).  This is the loop every
// headline experiment replays tens of millions of times, so its accesses/sec
// is the number the perf trajectory (BENCH_hotloop.json) tracks and the
// `perf_smoke` ctest guards.
//
//   ./micro_hotloop                      # full run, table to stdout
//   ./micro_hotloop --json=PATH          # also write machine-readable results
//   ./micro_hotloop --baseline=B --tolerances=T
//                                        # fail (exit 1) if the aggregate
//                                        # drops below the checked-in
//                                        # baseline by more than the
//                                        # "hotloop_aggregate_accesses_per_sec"
//                                        # tolerance (the perf_smoke gate)
//   ZOMBIE_BENCH_SMOKE=1 ./micro_hotloop # tiny access budget (bench_smoke)
//
// Any other argument, --help included, prints the usage to stderr and
// exits 2 before anything is measured.
//
// Scenarios: {FIFO, Clock, Mixed} x {scan, zipf, tiered} x {local, ramext}.
// local-only keeps every page resident (fault-free fast path); ramext gives
// the pager half the footprint (steady-state eviction + reload).
//
// Threaded rows (the per-vCPU data plane): {FIFO, Clock, Mixed} x
// threads ∈ {1, 2, 4, 8} on the tiered/ramext scenario, always on the same
// 4 shards with batched remote faults, so every thread count simulates the
// same faults and only the wall-clock differs.  The threaded aggregate is
// floor-gated through the same tolerance mechanism
// ("hotloop_threaded_aggregate_accesses_per_sec").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/env.h"
#include "src/common/report.h"
#include "src/hv/backend.h"
#include "src/scenario/diff.h"
#include "src/hv/pager.h"
#include "src/hv/replacement.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/sharded_hotloop.h"

namespace {

using zombie::Duration;
using zombie::kMicrosecond;
using zombie::hv::DeviceBackend;
using zombie::hv::DeviceLatency;
using zombie::hv::HostPager;
using zombie::hv::MakePolicy;
using zombie::hv::PagingParams;
using zombie::hv::PolicyKind;
using zombie::hv::PolicyKindName;
using zombie::workloads::AccessPattern;
using zombie::workloads::HotloopPattern;
using zombie::workloads::PageAccess;
using zombie::workloads::PatternParams;
using zombie::workloads::RunShardedHotLoop;
using zombie::workloads::ShardedHotLoopOptions;
using zombie::workloads::ShardedHotLoopResult;

constexpr std::uint64_t kFootprintPages = 4096;
constexpr std::uint64_t kSeed = 99;
// The threaded rows' fixed work: 4 shards (one per vCPU of the data plane)
// whatever the thread count.
constexpr std::uint32_t kThreadedShards = 4;

struct ScenarioResult {
  std::string policy;
  std::string pattern;
  std::string config;
  double accesses_per_sec = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  double elapsed_sec = 0.0;
};

ScenarioResult RunScenario(PolicyKind kind, const std::string& pattern_name, bool ramext,
                           std::uint64_t accesses) {
  DeviceBackend backend("hotloop-dev", DeviceLatency{10 * kMicrosecond, 8 * kMicrosecond});
  PagingParams params;
  const std::uint64_t frames = ramext ? kFootprintPages / 2 : kFootprintPages;
  HostPager pager(kFootprintPages, frames, MakePolicy(kind, params, 5), &backend, params);
  AccessPattern pattern(kFootprintPages, HotloopPattern(pattern_name), kSeed);

  constexpr std::size_t kBatch = 1024;
  std::vector<PageAccess> buffer(kBatch);
  Duration sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t remaining = accesses;
  while (remaining > 0) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, remaining));
    const std::span<PageAccess> chunk(buffer.data(), n);
    pattern.FillBatch(chunk);
    sink += pager.AccessBatch(chunk);
    remaining -= n;
  }
  const auto end = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.policy = std::string(PolicyKindName(kind));
  result.pattern = pattern_name;
  result.config = ramext ? "ramext" : "local";
  result.accesses = accesses;
  result.faults = pager.stats().faults;
  result.elapsed_sec = std::chrono::duration<double>(end - start).count();
  result.accesses_per_sec =
      result.elapsed_sec > 0.0 ? static_cast<double>(accesses) / result.elapsed_sec : 0.0;
  if (sink == 0) {
    // Keep the simulated-cost accumulation observable so the loop cannot be
    // optimised away.
    std::fprintf(stderr, "(zero simulated cost?)\n");
  }
  return result;
}

// One threaded row: the per-vCPU data plane on the tiered/ramext scenario,
// kThreadedShards shards, batched remote faults (8 pages per simulated trip).
struct ThreadedResult {
  PolicyKind kind = PolicyKind::kFifo;
  std::string policy;
  int threads = 0;
  double accesses_per_sec = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t round_trips = 0;
  double elapsed_sec = 0.0;

  double ns_per_access() const {
    return accesses > 0 ? elapsed_sec * 1e9 / static_cast<double>(accesses) : 0.0;
  }
  double ns_per_fault() const {
    return faults > 0 ? elapsed_sec * 1e9 / static_cast<double>(faults) : 0.0;
  }
};

// Passes per threaded row.  The row reports the median pass, as perfbench's
// hv.speedup_vs_1t does, so one pass stalled by another process on a shared
// host does not set the row.
constexpr int kThreadedPasses = 3;
// Unmeasured 4-thread work before the threaded rows.  On a 4-vCPU VM, after
// seconds of single-threaded rows, the first 4-thread passes ran at a third
// of their speed for several hundred ms; one short pass did not cover that.
constexpr double kWarmupSeconds = 0.5;

ShardedHotLoopOptions ThreadedOptions(PolicyKind kind, int threads, std::uint64_t accesses) {
  ShardedHotLoopOptions options;
  options.footprint_pages = kFootprintPages;
  options.local_frames = kFootprintPages / 2;  // the ramext configuration
  options.policy = kind;
  options.pattern = HotloopPattern("tiered");
  options.accesses = accesses;
  options.seed = kSeed;
  options.shards = kThreadedShards;
  options.threads = threads;
  options.fault_batch.batch_pages = 8;
  return options;
}

ThreadedResult RunThreadedScenario(PolicyKind kind, int threads, std::uint64_t accesses) {
  const ShardedHotLoopOptions options = ThreadedOptions(kind, threads, accesses);
  ShardedHotLoopResult run;
  std::vector<double> elapsed;
  for (int pass = 0; pass < kThreadedPasses; ++pass) {
    run = RunShardedHotLoop(options);  // same simulated work every pass
    elapsed.push_back(run.wall_seconds);
  }
  std::sort(elapsed.begin(), elapsed.end());

  ThreadedResult result;
  result.kind = kind;
  result.policy = std::string(PolicyKindName(kind));
  result.threads = threads;
  result.accesses = run.accesses;
  result.faults = run.stats.faults;
  result.round_trips = run.round_trips;
  result.elapsed_sec = elapsed[elapsed.size() / 2];
  result.accesses_per_sec = result.elapsed_sec > 0.0
                                ? static_cast<double>(run.accesses) / result.elapsed_sec
                                : 0.0;
  return result;
}

// Whole-file read for the baseline/tolerance inputs of the perf gate.
bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  char chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    out->append(chunk, n);
  }
  std::fclose(in);
  return true;
}

// The perf_smoke floors, derived from the checked-in BENCH_hotloop.json
// baseline and the named entries of the shared tolerance file — the same
// mechanism `zombieland diff` uses, so one file (bench/tolerances.json)
// states every regression bound.  Each gated metric names the JSON key its
// baseline lives under and the tolerance-file metric that excuses movement.
// A baseline missing a required key is a hard config error (exit 2) with a
// diagnostic naming the key — never a silent zero floor.
struct FloorSpec {
  const char* json_key;   // key in BENCH_hotloop.json
  const char* metric;     // entry in bench/tolerances.json
  double* floor;          // out: accesses/sec below which the gate fails
};

int DeriveFloors(const std::string& baseline_path, const std::string& tolerances_path,
                 std::span<const FloorSpec> specs) {
  std::string baseline_json;
  if (!ReadFile(baseline_path, &baseline_json)) {
    std::fprintf(stderr, "cannot read baseline '%s'\n", baseline_path.c_str());
    return 2;
  }
  zombie::scenario::DiffOptions tolerances;
  bool have_tolerances = false;
  if (!tolerances_path.empty()) {
    std::string tolerances_json;
    if (!ReadFile(tolerances_path, &tolerances_json)) {
      std::fprintf(stderr, "cannot read tolerances '%s'\n", tolerances_path.c_str());
      return 2;
    }
    auto options = zombie::scenario::ParseToleranceFile(tolerances_json, tolerances_path);
    if (!options.ok()) {
      std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
      return 2;
    }
    tolerances = std::move(options.value());
    have_tolerances = true;
  }

  auto baseline_doc = zombie::report::ParseJson(baseline_json);
  if (!baseline_doc.ok()) {
    std::fprintf(stderr, "perf gate: baseline '%s': %s\n", baseline_path.c_str(),
                 baseline_doc.status().ToString().c_str());
    return 2;
  }

  for (const FloorSpec& spec : specs) {
    const zombie::report::JsonValue* value = baseline_doc.value().Find(spec.json_key);
    if (value == nullptr) {
      std::fprintf(stderr,
                   "perf gate: baseline '%s' is missing required key \"%s\" — the\n"
                   "checked-in BENCH_hotloop.json predates this gate; regenerate it with\n"
                   "scripts/bench.sh (or pass --tolerances with \"%s\": \"ignore\")\n",
                   baseline_path.c_str(), spec.json_key, spec.metric);
      return 2;
    }
    const double baseline = value->is_number() ? value->number : 0.0;
    if (baseline <= 0.0) {
      std::fprintf(stderr, "perf gate: baseline '%s' key \"%s\" is non-positive\n",
                   baseline_path.c_str(), spec.json_key);
      return 2;
    }

    // No tolerance entry falls back to the historical 30% allowance.
    zombie::scenario::Tolerance tolerance;
    tolerance.kind = zombie::scenario::Tolerance::Kind::kPercent;
    tolerance.value = 30.0;
    tolerance.text = "30%";
    if (have_tolerances) {
      auto it = tolerances.metric_tolerances.find(spec.metric);
      if (it != tolerances.metric_tolerances.end()) {
        tolerance = it->second;
      }
    }

    switch (tolerance.kind) {
      case zombie::scenario::Tolerance::Kind::kIgnore:
        *spec.floor = 0.0;
        break;
      case zombie::scenario::Tolerance::Kind::kPercent:
        *spec.floor = std::max(0.0, baseline * (1.0 - tolerance.value / 100.0));
        break;
      case zombie::scenario::Tolerance::Kind::kAbsolute:
        *spec.floor = std::max(0.0, baseline - tolerance.value);
        break;
    }
    std::printf("perf gate: %s baseline %.0f accesses/sec, tolerance %s -> floor %.0f\n",
                spec.json_key, baseline, tolerance.text.c_str(), *spec.floor);
  }
  return 0;
}

constexpr const char* kUsage =
    "usage: micro_hotloop [--json=PATH] [--baseline=PATH --tolerances=PATH]\n"
    "  --json=PATH        also write machine-readable results to PATH\n"
    "  --baseline=PATH    fail (exit 1) if the aggregate drops below this\n"
    "                     baseline by more than its tolerance\n"
    "  --tolerances=PATH  the tolerance file the baseline floors come from\n"
    "  ZOMBIE_BENCH_SMOKE=1 shrinks the access budget\n";

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::string tolerances_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--tolerances=", 13) == 0) {
      tolerances_path = argv[i] + 13;
    } else {
      // Unknown arguments, --help included, never start a measurement.
      std::fprintf(stderr, "micro_hotloop: unrecognised argument '%s'\n%s", argv[i], kUsage);
      return 2;
    }
  }

  double gate_floor = 0.0;
  double threaded_gate_floor = 0.0;
  if (!baseline_path.empty()) {
    const FloorSpec specs[] = {
        {"aggregate_accesses_per_sec", "hotloop_aggregate_accesses_per_sec", &gate_floor},
        {"threaded_aggregate_accesses_per_sec", "hotloop_threaded_aggregate_accesses_per_sec",
         &threaded_gate_floor},
    };
    const int status = DeriveFloors(baseline_path, tolerances_path, specs);
    if (status != 0) {
      return status;
    }
  }

  // ZOMBIE_BENCH_SMOKE=1 (the bench_smoke label) shrinks the access budget.
  const std::uint64_t accesses = zombie::SmokeEnvEnabled() ? 200'000 : 4'000'000;
  const std::vector<PolicyKind> policies = {PolicyKind::kFifo, PolicyKind::kClock,
                                            PolicyKind::kMixed};
  const std::vector<std::string> patterns = {"scan", "zipf", "tiered"};

  std::printf("== micro_hotloop: pager-loop throughput (%llu accesses/scenario) ==\n\n",
              static_cast<unsigned long long>(accesses));
  std::printf("%-7s %-7s %-7s %14s %10s\n", "policy", "pattern", "config", "accesses/s",
              "faults");

  std::vector<ScenarioResult> results;
  double total_accesses = 0.0;
  double total_elapsed = 0.0;
  for (PolicyKind kind : policies) {
    for (const std::string& pattern : patterns) {
      for (bool ramext : {false, true}) {
        ScenarioResult r = RunScenario(kind, pattern, ramext, accesses);
        std::printf("%-7s %-7s %-7s %14.0f %10llu\n", r.policy.c_str(), r.pattern.c_str(),
                    r.config.c_str(), r.accesses_per_sec,
                    static_cast<unsigned long long>(r.faults));
        total_accesses += static_cast<double>(r.accesses);
        total_elapsed += r.elapsed_sec;
        results.push_back(std::move(r));
      }
    }
  }
  const double aggregate = total_elapsed > 0.0 ? total_accesses / total_elapsed : 0.0;
  std::printf("\naggregate: %.0f accesses/sec over %zu scenarios\n", aggregate,
              results.size());

  // The threaded data plane: every row runs the same 4 shards, so a policy's
  // rows simulate identical faults and the 4-thread speedup is parallelism
  // alone.  Unmeasured 4-thread passes warm the cores; then the
  // multi-thread rows run back to back and the 1-thread rows last, the
  // schedule perfbench uses for hv.speedup_vs_1t (on a shared host, vCPUs
  // that idled through single-threaded work can run the lanes far slower
  // for a while after they start).  The budget gives each lane tens of ms
  // even in smoke mode.
  const std::uint64_t threaded_accesses = zombie::SmokeEnvEnabled() ? 2'000'000 : 16'000'000;
  // Warm-up: unmeasured 4-thread passes for at least kWarmupSeconds.
  for (double warm = 0.0; warm < kWarmupSeconds;) {
    warm += RunShardedHotLoop(ThreadedOptions(PolicyKind::kMixed, 4, threaded_accesses)).wall_seconds;
  }
  std::vector<ThreadedResult> threaded;
  for (const int threads : {4, 8, 2, 1}) {
    for (const PolicyKind kind : policies) {
      threaded.push_back(RunThreadedScenario(kind, threads, threaded_accesses));
    }
  }
  // Report in (policy, threads) order.
  std::sort(threaded.begin(), threaded.end(), [](const ThreadedResult& a, const ThreadedResult& b) {
    return std::tie(a.kind, a.threads) < std::tie(b.kind, b.threads);
  });

  std::printf("\n== threaded hot loop (%u shards, tiered/ramext, %llu accesses/row) ==\n\n",
              kThreadedShards, static_cast<unsigned long long>(threaded_accesses));
  std::printf("%-7s %8s %14s %10s %12s %10s %10s\n", "policy", "threads", "accesses/s",
              "faults", "round_trips", "ns/access", "ns/fault");
  double t1_accesses = 0.0, t1_elapsed = 0.0;
  double t4_accesses = 0.0, t4_elapsed = 0.0;
  for (const ThreadedResult& r : threaded) {
    std::printf("%-7s %8d %14.0f %10llu %12llu %10.1f %10.1f\n", r.policy.c_str(), r.threads,
                r.accesses_per_sec, static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.round_trips), r.ns_per_access(),
                r.ns_per_fault());
    if (r.threads == 1) {
      t1_accesses += static_cast<double>(r.accesses);
      t1_elapsed += r.elapsed_sec;
    } else if (r.threads == 4) {
      t4_accesses += static_cast<double>(r.accesses);
      t4_elapsed += r.elapsed_sec;
    }
  }
  const double threaded_aggregate = t4_elapsed > 0.0 ? t4_accesses / t4_elapsed : 0.0;
  const double t1_aggregate = t1_elapsed > 0.0 ? t1_accesses / t1_elapsed : 0.0;
  const double speedup_4t = t1_aggregate > 0.0 ? threaded_aggregate / t1_aggregate : 0.0;
  std::printf("\nthreaded aggregate (4 threads): %.0f accesses/sec, %.2fx over 1 thread\n",
              threaded_aggregate, speedup_4t);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"micro_hotloop\",\n  \"mode\": \"%s\",\n",
                 zombie::SmokeEnvEnabled() ? "smoke" : "full");
    std::fprintf(out, "  \"accesses_per_scenario\": %llu,\n",
                 static_cast<unsigned long long>(accesses));
    std::fprintf(out, "  \"aggregate_accesses_per_sec\": %.0f,\n  \"scenarios\": [\n",
                 aggregate);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ScenarioResult& r = results[i];
      std::fprintf(out,
                   "    {\"policy\": \"%s\", \"pattern\": \"%s\", \"config\": \"%s\", "
                   "\"accesses_per_sec\": %.0f, \"faults\": %llu}%s\n",
                   r.policy.c_str(), r.pattern.c_str(), r.config.c_str(), r.accesses_per_sec,
                   static_cast<unsigned long long>(r.faults), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"threaded_shards\": %u,\n", kThreadedShards);
    std::fprintf(out, "  \"threaded_accesses_per_row\": %llu,\n",
                 static_cast<unsigned long long>(threaded_accesses));
    std::fprintf(out, "  \"threaded_aggregate_accesses_per_sec\": %.0f,\n", threaded_aggregate);
    std::fprintf(out, "  \"threaded_speedup_4t\": %.3f,\n", speedup_4t);
    std::fprintf(out, "  \"threaded\": [\n");
    for (std::size_t i = 0; i < threaded.size(); ++i) {
      const ThreadedResult& r = threaded[i];
      std::fprintf(out,
                   "    {\"policy\": \"%s\", \"pattern\": \"tiered\", \"config\": \"ramext\", "
                   "\"threads\": %d, \"accesses_per_sec\": %.0f, \"faults\": %llu, "
                   "\"round_trips\": %llu, \"ns_per_access\": %.1f, \"ns_per_fault\": %.1f}%s\n",
                   r.policy.c_str(), r.threads, r.accesses_per_sec,
                   static_cast<unsigned long long>(r.faults),
                   static_cast<unsigned long long>(r.round_trips), r.ns_per_access(),
                   r.ns_per_fault(), i + 1 < threaded.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

  if (gate_floor > 0.0 && aggregate < gate_floor) {
    std::fprintf(stderr,
                 "perf_smoke FAILURE: aggregate %.0f accesses/sec is below the "
                 "baseline-derived floor %.0f (see bench/tolerances.json)\n",
                 aggregate, gate_floor);
    return 1;
  }
  if (threaded_gate_floor > 0.0 && threaded_aggregate < threaded_gate_floor) {
    std::fprintf(stderr,
                 "perf_smoke FAILURE: threaded aggregate %.0f accesses/sec is below the "
                 "baseline-derived floor %.0f (see bench/tolerances.json)\n",
                 threaded_aggregate, threaded_gate_floor);
    return 1;
  }
  // The scaling acceptance: 4 worker threads must at least double the
  // sharded engine's own single-thread throughput.  Only meaningful where 4
  // hardware threads exist — a 1-core container time-slices the lanes.
  const unsigned cores = std::thread::hardware_concurrency();
  if (!baseline_path.empty() && cores >= 4 && speedup_4t < 2.0) {
    std::fprintf(stderr,
                 "perf_smoke FAILURE: 4-thread speedup %.2fx < 2.0x on %u cores\n",
                 speedup_4t, cores);
    return 1;
  }
  if (cores < 4) {
    std::printf("(scaling check skipped: %u hardware thread(s))\n", cores);
  }
  return 0;
}
