// Registry entries for the online serving family: zombieland as a
// long-running daemon admitting a continuous VM request stream with
// admission control, backpressure and tail-latency SLOs.
//
//   serve_steady — Poisson/diurnal arrivals vs arrival rate x local floor;
//   serve_spike  — a flash crowd vs arrival rate x admission headroom (the
//                  tail-latency / shed-rate study);
//   serve_faults — the spike with a fault firing mid-burst; every sweep
//                  point must end healthy with zero orphaned buffers.
//
// All three run the ServeDaemon (src/serve/daemon.h) on seeded request
// timelines, so reports are byte-identical under any sweep parallelism and
// the diff gate pins the latency distributions down.
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/faults.h"
#include "src/common/report.h"
#include "src/scenario/registry.h"
#include "src/serve/daemon.h"
#include "src/serve/stream.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;

// Shared topology of the serving experiments: two awake hosts take VMs, four
// zombies lend their memory to the pool (and are woken under queue
// pressure).  Kept deliberately small so a sweep point stays sub-second.
// Server shape, BUFF_SIZE and machine are the ServeConfig defaults.
serve::ServeConfig MakeServeConfig(const RunContext& ctx) {
  serve::ServeConfig config;
  config.hosts = ctx.ParamU64("hosts");
  config.zombies = ctx.ParamU64("zombies");
  config.queue_depth = ctx.ParamU64("queue_depth");
  config.queue_timeout =
      static_cast<Duration>(ctx.ParamU64("queue_timeout_ms")) * kMillisecond;
  config.tenant_memory_quota = ctx.ParamU64("tenant_quota_gib") * kGiB;  // 0 disables
  config.throttle.rate_per_s = ctx.ParamDouble("throttle_rps");
  config.throttle.burst = 4.0;
  // A verdict every 10ms: the serial gate saturates around 100 req/s, so
  // flash crowds produce real admission queueing, not just placement load.
  config.admission_service = 10 * kMillisecond;
  return config;
}

serve::StreamConfig MakeStreamConfig(const RunContext& ctx, double rate_per_s) {
  serve::StreamConfig stream;
  stream.seed = ctx.ParamU64("seed");
  stream.rate_per_s = rate_per_s;
  stream.horizon = static_cast<Duration>(ctx.ParamU64("horizon_ms")) * kMillisecond;
  stream.tenants = 4;
  stream.mean_lifetime = 2 * kSecond;
  // Memory-bound VM shapes: one vCPU each, 2-6 GiB booked, so a 16 GiB /
  // 8-cpu host runs out of RAM before cores and the local-floor axis governs
  // how far the remote pool stretches each host.
  stream.vcpus = 1;
  stream.min_memory = 2 * kGiB;
  stream.max_memory = 6 * kGiB;
  stream.memory_step = 1 * kGiB;
  // Burst window scales with the horizon so smoke runs still exercise it.
  stream.burst_start = stream.horizon * 2 / 5;
  stream.burst_duration = stream.horizon / 5;
  stream.diurnal_period = stream.horizon * 4 / 5;
  return stream;
}

// One sweep point end to end: generate the timeline, run the daemon, keep it
// alive so the caller can read metrics and health.
struct ServeRun {
  std::unique_ptr<serve::ServeDaemon> daemon;
  Status run_status;
};

ServeRun RunServePoint(const serve::ServeConfig& config,
                       const serve::StreamConfig& stream,
                       const cloud::FaultPlan* faults = nullptr) {
  ServeRun run;
  run.daemon = std::make_unique<serve::ServeDaemon>(config);
  run.run_status =
      run.daemon->Run(serve::RequestStream(stream).Generate(), faults);
  return run;
}

void RecordPointMetrics(report::SweepPointRecord& rec, serve::ServeMetrics& m) {
  const PercentileSummary adm = m.admission_wait_ms.Summary();
  const PercentileSummary place = m.placement_ms.Summary();
  rec.Metric("adm_p50_ms", adm.p50);
  rec.Metric("adm_p99_ms", adm.p99);
  rec.Metric("adm_p999_ms", adm.p999);
  rec.Metric("place_p50_ms", place.p50);
  rec.Metric("place_p99_ms", place.p99);
  rec.Metric("place_p999_ms", place.p999);
  rec.Metric("shed_rate", m.ShedRate());
  rec.Metric("placed", static_cast<double>(m.placed));
  rec.Metric("zombie_wakes", static_cast<double>(m.zombie_wakes));
  rec.Metric("slo_violations", static_cast<double>(m.slo_violations));
  rec.Metric("avg_power_pct", m.power_pct.mean());
}

// The daemon and stream parameters all three serving scenarios declare, after
// their own.  The fields below are the only values that differ between them.
struct ServeParamDefaults {
  std::string tenant_quota_gib;
  std::string tenant_quota_description = "per-tenant memory quota (GiB; 0 = unlimited)";
  std::string throttle_rps;
  double min_zombies = 0;
};

// The largest horizon_ms and queue_timeout_ms: one simulated day.  Times
// are int64 ns, so 86,400,000 ms is 8.64e13 ns, five orders of magnitude
// below the 9.2e18 limit: the ms -> Duration conversion and the windows
// derived from it (horizon * 4 / 5, a deadline past the horizon) cannot wrap.
constexpr std::uint64_t kMaxServeMs = 86'400'000;
static_assert(static_cast<Duration>(kMaxServeMs) * 4 <=
              std::numeric_limits<Duration>::max() / kMillisecond);

ScenarioBuilder& WithServeParams(ScenarioBuilder& builder, ServeParamDefaults defaults) {
  return builder
      .Param({.name = "seed", .type = ParamType::kU64, .default_value = "42",
              .description = "request-stream seed"})
      .Param({.name = "horizon_ms",
              .type = ParamType::kU64,
              .default_value = "10000",
              .description = "arrival window (ms, max 86400000)",
              .range = ParamRange{.min = 500, .max = kMaxServeMs}})
      .Param({.name = "hosts", .type = ParamType::kU64, .default_value = "2",
              .description = "awake hosts taking VMs",
              .range = ParamRange{.min = 1}})
      .Param({.name = "zombies", .type = ParamType::kU64, .default_value = "4",
              .description = "zombie servers lending memory",
              .range = ParamRange{.min = defaults.min_zombies}})
      .Param({.name = "queue_depth",
              .type = ParamType::kU64,
              .default_value = "64",
              .description = "backpressure queue bound",
              .range = ParamRange{.min = 1}})
      .Param({.name = "queue_timeout_ms",
              .type = ParamType::kU64,
              .default_value = "2000",
              .description = "queued-booking deadline (ms, max 86400000)",
              .range = ParamRange{.min = 100, .max = kMaxServeMs}})
      .Param({.name = "tenant_quota_gib",
              .type = ParamType::kU64,
              .default_value = std::move(defaults.tenant_quota_gib),
              .description = std::move(defaults.tenant_quota_description)})
      .Param({.name = "throttle_rps",
              .type = ParamType::kDouble,
              .default_value = std::move(defaults.throttle_rps),
              .description = "admission token-bucket rate (0 = off)",
              .range = ParamRange{.min = 0.0}});
}

// ---------------------------------------------------------------------------
// serve_steady: arrival rate x local floor under a steady arrival process.
// ---------------------------------------------------------------------------

Result<Report> RunServeSteady(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Online serving: steady arrivals through the admission gate ==\n\n");
  r.Text(StrPrintf(
      "Daemon: %llu hosts + %llu zombies; VM stream %s; per-tenant quota and\n"
      "rack budget enforced at admission; unplaceable bookings queue (bounded)\n"
      "and wake zombies.  Latencies in simulated time.\n\n",
      static_cast<unsigned long long>(ctx.ParamU64("hosts")),
      static_cast<unsigned long long>(ctx.ParamU64("zombies")),
      ctx.Param("process").c_str()));

  const std::vector<std::uint64_t> rate_axis = ctx.AxisU64s("rate");
  const std::vector<double> floor_axis = ctx.AxisDoubles("floor");
  std::vector<std::string> rows;
  for (std::uint64_t rate : rate_axis) {
    for (double floor : floor_axis) {
      rows.push_back(StrPrintf("%llu/s floor %.2f",
                               static_cast<unsigned long long>(rate), floor));
    }
  }
  auto table = r.AddSweepTable(
      "steady", "", "rate/floor", rows,
      {"adm p99 (ms)", "place p99 (ms)", "shed %", "placed", "wakes",
       "SLO viol", "power %"});

  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    serve::ServeConfig config = MakeServeConfig(ctx);
    config.local_floor = pt.Double("floor");
    serve::StreamConfig stream =
        MakeStreamConfig(ctx, static_cast<double>(pt.U64("rate")));
    stream.process = serve::ArrivalProcessFromKey(ctx.Param("process"));

    ServeRun run = RunServePoint(config, stream);
    serve::ServeMetrics& m = run.daemon->metrics();
    table.Set(pt.index(), 0, Report::Num(m.admission_wait_ms.Percentile(99.0)));
    table.Set(pt.index(), 1, Report::Num(m.placement_ms.Percentile(99.0)));
    table.Set(pt.index(), 2, Report::Num(m.ShedRate() * 100.0, 1));
    table.Set(pt.index(), 3, Report::Int(m.placed));
    table.Set(pt.index(), 4, Report::Int(m.zombie_wakes));
    table.Set(pt.index(), 5, Report::Int(m.slo_violations));
    table.Set(pt.index(), 6, Report::Num(m.power_pct.mean(), 1));
    RecordPointMetrics(rec, m);
  });

  r.Text(
      "\nHigher arrival rates push the serial admission gate into queueing\n"
      "(admission p99 grows) and the rack into backpressure: the queue wakes\n"
      "zombies (raising power) until capacity or the vCPU budget sheds the\n"
      "rest.  floor 1.00 is vanilla Nova: no remote memory, so placement\n"
      "saturates earlier and shed rises.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(WithServeParams(
    ScenarioBuilder("serve_steady")
        .Title("Online serving: steady arrivals, admission + backpressure")
        .Description("Long-running daemon under Poisson/diurnal VM arrivals; "
                     "p50/p99/p999 admission and placement latency, shed rate "
                     "vs arrival rate and local-memory floor")
        .Param({.name = "rate",
                .type = ParamType::kU64,
                .description = "mean VM arrival rate (VMs/s)",
                .range = ParamRange{.min = 1}})
        .Param({.name = "floor",
                .type = ParamType::kDouble,
                .description = "local-memory placement floor (1.0 = vanilla)",
                .range = ParamRange{.min = 0.0, .max = 1.0, .min_exclusive = true}})
        .Param({.name = "process",
                .type = ParamType::kString,
                .default_value = "poisson",
                .description = "arrival process",
                .choices = {"poisson", "diurnal", "flash"}})
        .Sweep({.axes = {{"rate", {"5", "15"}}, {"floor", {"0.5", "1.0"}}}})
        .Runner(RunServeSteady),
    {.tenant_quota_gib = "16", .throttle_rps = "0"}));

// ---------------------------------------------------------------------------
// serve_spike: flash crowd vs arrival rate x admission headroom.
// ---------------------------------------------------------------------------

Result<Report> RunServeSpike(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Online serving: flash crowd vs admission headroom ==\n\n");
  r.Text(StrPrintf(
      "A %gx burst lands mid-run on top of the base rate; the admission gate\n"
      "throttles at %.0f req/s.  Lower headroom sheds more at the rack budget\n"
      "but keeps placement tails flatter; higher headroom admits deeper into\n"
      "the burst and pays for it in queueing.\n\n",
      ctx.ParamDouble("burst"), ctx.ParamDouble("throttle_rps")));

  const std::vector<std::uint64_t> rate_axis = ctx.AxisU64s("rate");
  const std::vector<double> headroom_axis = ctx.AxisDoubles("headroom");
  std::vector<std::string> rows;
  for (std::uint64_t rate : rate_axis) {
    for (double headroom : headroom_axis) {
      rows.push_back(StrPrintf("%llu/s hr %.2f",
                               static_cast<unsigned long long>(rate), headroom));
    }
  }
  auto table = r.AddSweepTable(
      "spike", "", "rate/headroom", rows,
      {"adm p50", "adm p99", "adm p999 (ms)", "place p50", "place p99",
       "place p999 (ms)", "shed %", "wakes"});

  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    serve::ServeConfig config = MakeServeConfig(ctx);
    config.admission.memory_headroom = pt.Double("headroom");
    serve::StreamConfig stream =
        MakeStreamConfig(ctx, static_cast<double>(pt.U64("rate")));
    stream.process = serve::ArrivalProcess::kFlashCrowd;
    stream.burst_multiplier = ctx.ParamDouble("burst");

    ServeRun run = RunServePoint(config, stream);
    serve::ServeMetrics& m = run.daemon->metrics();
    const PercentileSummary adm = m.admission_wait_ms.Summary();
    const PercentileSummary place = m.placement_ms.Summary();
    table.Set(pt.index(), 0, Report::Num(adm.p50));
    table.Set(pt.index(), 1, Report::Num(adm.p99));
    table.Set(pt.index(), 2, Report::Num(adm.p999));
    table.Set(pt.index(), 3, Report::Num(place.p50));
    table.Set(pt.index(), 4, Report::Num(place.p99));
    table.Set(pt.index(), 5, Report::Num(place.p999));
    table.Set(pt.index(), 6, Report::Num(m.ShedRate() * 100.0, 1));
    table.Set(pt.index(), 7, Report::Int(m.zombie_wakes));
    RecordPointMetrics(rec, m);
  });

  r.Text(
      "\nThe burst fills the backpressure queue faster than zombie wakes add\n"
      "capacity: sheds split between the token bucket (gate protection), the\n"
      "rack budget (headroom) and queue overflow/timeouts, and the placement\n"
      "p999 carries the wake latency of the zombies pulled into service.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(WithServeParams(
    ScenarioBuilder("serve_spike")
        .Title("Online serving: flash crowd, tail latency and shed rate")
        .Description("Flash-crowd arrivals vs admission headroom: p50/p99/p999 "
                     "admission and placement latency, shed breakdown, zombie "
                     "wakes under the burst")
        .Param({.name = "rate",
                .type = ParamType::kU64,
                .description = "base arrival rate (VMs/s); burst multiplies it",
                .range = ParamRange{.min = 1}})
        .Param({.name = "headroom",
                .type = ParamType::kDouble,
                .description = "fraction of rack memory admissible (Section 4.4)",
                .range = ParamRange{.min = 0.0, .max = 1.0, .min_exclusive = true}})
        .Param({.name = "burst",
                .type = ParamType::kDouble,
                .default_value = "5",
                .description = "flash-crowd rate multiplier",
                .range = ParamRange{.min = 1.0}})
        .Sweep({.axes = {{"rate", {"6", "12"}}, {"headroom", {"0.7", "0.9"}}}})
        .Runner(RunServeSpike),
    {.tenant_quota_gib = "0",
     .tenant_quota_description = "per-tenant memory quota (GiB; 0 = unlimited; "
                                 "off here so the headroom axis is what binds)",
     .throttle_rps = "40"}));

// ---------------------------------------------------------------------------
// serve_faults: the flash crowd with a fault firing mid-burst.  Every sweep
// point must end with invariants intact and zero orphaned buffers.
// ---------------------------------------------------------------------------

Result<Report> RunServeFaults(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Online serving under faults: spike + mid-burst failure ==\n\n");
  r.Text(
      "One fault fires in the middle of the flash crowd (tests may inject\n"
      "their own FaultPlan through RunOptions::fault_plan).  Acceptance per\n"
      "point: ownership invariants hold and zero buffers are orphaned after\n"
      "the run; evicted VMs surface as cancellations, not leaks.\n\n");

  const std::vector<std::string> fault_axis = ctx.Axis("fault");
  const std::vector<std::uint64_t> shard_axis = ctx.AxisU64s("shards");
  std::vector<std::string> rows;
  for (const std::string& fault : fault_axis) {
    for (std::uint64_t shards : shard_axis) {
      rows.push_back(StrPrintf("%s s%llu", fault.c_str(),
                               static_cast<unsigned long long>(shards)));
    }
  }
  auto table = r.AddSweepTable(
      "faults", "", "fault/shards", rows,
      {"placed", "shed %", "cancelled", "wakes", "place p99 (ms)", "orphaned"});
  std::vector<std::string> failures(rows.size());

  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    serve::ServeConfig config = MakeServeConfig(ctx);
    config.controller_shards = static_cast<std::size_t>(pt.U64("shards"));
    serve::StreamConfig stream = MakeStreamConfig(ctx, ctx.ParamDouble("rate"));
    stream.process = serve::ArrivalProcess::kFlashCrowd;

    auto daemon = std::make_unique<serve::ServeDaemon>(config);
    const SimTime fault_at = stream.burst_start + stream.burst_duration / 2;
    const Duration ttl = config.lease_ttl;

    cloud::FaultEvent event;
    event.at = fault_at;
    const std::string& fault = pt.Value("fault");
    if (fault == "ctrl_crash") {
      event.kind = cloud::FaultKind::kControllerCrash;
      event.shard = 0;
    } else if (fault == "host_crash") {
      event.kind = cloud::FaultKind::kHostCrash;
      // The zombie least likely to have been woken yet (wakes take the
      // front of the list).
      event.host = daemon->sleeping_zombies().back();
    } else if (fault == "partition") {
      event.kind = cloud::FaultKind::kPartition;
      event.shard = 1 % config.controller_shards;
      event.duration = ttl + 200 * kMillisecond;
    } else {  // hb_drop: sub-TTL flap, must be absorbed
      event.kind = cloud::FaultKind::kHeartbeatDrop;
      event.host = daemon->sleeping_zombies().front();
      event.duration = ttl / 2;
    }
    cloud::FaultPlan builtin{{event}};
    const cloud::FaultPlan* plan =
        ctx.fault_plan() != nullptr ? ctx.fault_plan() : &builtin;

    Status ran = daemon->Run(serve::RequestStream(stream).Generate(), plan);
    if (!ran.ok()) {
      failures[pt.index()] =
          StrPrintf("  (%s: run failed: %s)\n", rows[pt.index()].c_str(),
                    ran.ToString().c_str());
      return;
    }
    Status health = daemon->CheckHealth();
    const auto orphaned =
        daemon->rack().plane().OrphanedBuffers(daemon->rack().now());
    // Post-run probe: a guaranteed allocation from a surviving host must
    // succeed — the pool recovered, not just quiesced.
    bool probe_ok = true;
    if (!daemon->live_hosts().empty()) {
      auto& manager = daemon->rack().manager(daemon->live_hosts().front());
      auto probe = manager.AllocExtension(daemon->rack().plane().buff_size());
      probe_ok = probe.ok();
      if (probe.ok()) {
        (void)manager.ReleaseExtent(probe.value());
      }
    }
    if (!health.ok() || !probe_ok) {
      failures[pt.index()] = StrPrintf(
          "  (%s: health=%s probe=%s)\n", rows[pt.index()].c_str(),
          health.ok() ? "ok" : health.ToString().c_str(), probe_ok ? "ok" : "FAILED");
      return;
    }

    serve::ServeMetrics& m = daemon->metrics();
    table.Set(pt.index(), 0, Report::Int(m.placed));
    table.Set(pt.index(), 1, Report::Num(m.ShedRate() * 100.0, 1));
    table.Set(pt.index(), 2, Report::Int(m.cancelled));
    table.Set(pt.index(), 3, Report::Int(m.zombie_wakes));
    table.Set(pt.index(), 4, Report::Num(m.placement_ms.Percentile(99.0)));
    table.Set(pt.index(), 5, Report::Int(orphaned.size()));
    RecordPointMetrics(rec, m);
    rec.Metric("cancelled", static_cast<double>(m.cancelled));
    rec.Metric("orphaned_buffers", static_cast<double>(orphaned.size()));
  });

  bool any_failed = false;
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      r.Text(failure);
      any_failed = true;
    }
  }
  if (any_failed) {
    return Status(ErrorCode::kFailedPrecondition,
                  "serve_faults sweep point ended unhealthy or with orphans");
  }

  r.Text(
      "\nController loss stalls placements until the warm secondary promotes;\n"
      "a zombie crash or shard partition expels hosts at the lease deadline\n"
      "(their VMs become cancellations) and the pool heals with zero orphans;\n"
      "sub-TTL heartbeat flaps pass through the spike untouched.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(WithServeParams(
    ScenarioBuilder("serve_faults")
        .Title("Online serving under faults: mid-burst failure recovery")
        .Description("Flash crowd with a controller crash, zombie death, "
                     "partition or heartbeat flap mid-burst; every point must "
                     "end healthy with zero orphaned buffers")
        .Param({.name = "fault",
                .type = ParamType::kString,
                .description = "which fault fires mid-burst",
                .choices = {"ctrl_crash", "host_crash", "partition", "hb_drop"}})
        .Param({.name = "shards",
                .type = ParamType::kU64,
                .description = "controller shard count",
                .range = ParamRange{.min = 2}})
        .Param({.name = "rate",
                .type = ParamType::kDouble,
                .default_value = "10",
                .description = "base arrival rate (VMs/s)",
                .range = ParamRange{.min = 1.0}})
        .Sweep({.axes = {{"fault",
                          {"ctrl_crash", "host_crash", "partition", "hb_drop"}},
                         {"shards", {"2", "4"}}}})
        .Runner(RunServeFaults),
    {.tenant_quota_gib = "16", .throttle_rps = "25", .min_zombies = 1}));

}  // namespace
}  // namespace zombie::scenario
