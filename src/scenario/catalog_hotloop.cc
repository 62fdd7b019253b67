// Registry entry for the threaded hot loop: the per-vCPU sharded pager with
// batched remote faults, swept over threads x policy x pattern.  Every
// recorded number is simulated state (faults, costs, RPC counts) — never
// wall-clock — so for a fixed (seed, shards, batch) the report is
// byte-identical across runs, thread counts and -j schedules.
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/report.h"
#include "src/common/units.h"
#include "src/hv/replacement.h"
#include "src/scenario/registry.h"
#include "src/workloads/sharded_hotloop.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;

Report RunHotloopThreaded(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Threaded hot loop: per-vCPU shards, batched remote faults ==\n\n");
  const std::uint64_t accesses = ctx.ScaledAccesses(2'000'000);
  const std::uint64_t batch = ctx.ParamU64("batch_pages");
  r.Text(StrPrintf("%llu accesses per point, remote faults batched %llu to a "
                   "round trip.\n",
                   static_cast<unsigned long long>(accesses),
                   static_cast<unsigned long long>(batch)));

  const std::vector<std::string> patterns = ctx.Axis("pattern");
  const std::vector<std::string> policies = ctx.Axis("policy");
  std::vector<std::string> thread_rows;
  for (std::uint64_t threads : ctx.AxisU64s("threads")) {
    thread_rows.push_back(std::to_string(threads));
  }
  // One faults pivot per pattern (pattern-major grid, matching point order).
  std::vector<report::SweepTable> tables;
  tables.reserve(patterns.size());
  for (const std::string& pattern : patterns) {
    tables.push_back(r.AddSweepTable(
        "faults_" + pattern, StrPrintf("\n-- %s: page faults --", pattern.c_str()),
        "shards", thread_rows, policies));
  }

  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    workloads::ShardedHotLoopOptions options;
    options.accesses = accesses;
    options.policy = PolicyKindFromName(pt.Value("policy"));
    options.pattern = workloads::HotloopPattern(pt.Value("pattern"));
    options.shards = static_cast<std::uint32_t>(pt.U64("threads"));
    options.threads = static_cast<int>(pt.U64("threads"));
    options.fault_batch.batch_pages = batch;
    const workloads::ShardedHotLoopResult run =
        workloads::RunShardedHotLoop(options);
    tables[pt.AxisIndex("pattern")].Set(pt.AxisIndex("threads"),
                                        pt.AxisIndex("policy"),
                                        Report::Int(run.stats.faults));
    rec.Metric("faults", static_cast<double>(run.stats.faults));
    rec.Metric("major_faults", static_cast<double>(run.stats.major_faults));
    rec.Metric("evictions", static_cast<double>(run.stats.evictions));
    rec.Metric("writebacks", static_cast<double>(run.stats.writebacks));
    rec.Metric("sim_cost_seconds", ToSeconds(run.stats.total_cost));
    rec.Metric("round_trips", static_cast<double>(run.round_trips));
    rec.Metric("rider_pages", static_cast<double>(run.rider_pages));
  });

  r.Text(
      "\nShards own disjoint page slices with per-shard seeded streams, so\n"
      "every number above is a pure function of (seed, shards, batch) — the\n"
      "thread count only changes wall-clock, never results.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("hotloop_threaded")
        .Title("Threaded hot loop: per-vCPU shards, batched remote faults")
        .Description("Sharded paging sweep over threads x policy x pattern "
                     "(simulated counters only; deterministic)")
        .Param({.name = "threads",
                .type = ParamType::kU64,
                .description = "shard/worker count (one paging lane per vCPU)",
                .range = ParamRange{.min = 1, .max = 64}})
        .Param({.name = "policy",
                .description = "replacement policy axis",
                .choices = {"FIFO", "Clock", "Mixed"}})
        .Param({.name = "pattern",
                .description = "access-pattern axis",
                .choices = {"scan", "zipf", "tiered"}})
        .Param({.name = "batch_pages",
                .type = ParamType::kU64,
                .default_value = "8",
                .description = "remote-fault pages coalesced per RPC round trip",
                .range = ParamRange{.min = 1, .max = 256}})
        .Sweep({.axes = {{"pattern", {"scan", "zipf", "tiered"}},
                         {"threads", {"1", "2", "4", "8"}},
                         {"policy", {"FIFO", "Clock", "Mixed"}}}})
        .Runner(RunHotloopThreaded));

}  // namespace
}  // namespace zombie::scenario
