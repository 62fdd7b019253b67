// Registry entries for the fault-injection family: the sharded control
// plane under controller crashes, silent host death, fabric partitions and
// heartbeat flaps.  Every fault fires at a fixed simulated instant (a
// FaultPlan replayed by cloud::FaultInjector), so reports are byte-identical
// under any sweep-point parallelism and the diff gate can pin them down.
//
// Health after a fault means: guaranteed RAM-Ext allocation succeeds, every
// ownership invariant holds (CheckInvariants) and no buffer is orphaned
// (hosted by a server without a live lease).  A point that never returns to
// health fails the scenario.
#include <cstdint>
#include <string>
#include <vector>

#include "src/cloud/faults.h"
#include "src/cloud/rack.h"
#include "src/common/report.h"
#include "src/scenario/registry.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;

constexpr std::size_t kFaultZombies = 4;

// One rack wired for the fault experiments: a user server, a spare active
// server (the AS_get_free_mem escalation target) and kFaultZombies zombies
// at a 64 MiB BUFF_SIZE.
struct FaultBed {
  std::unique_ptr<cloud::Rack> rack;
  remotemem::ServerId user = remotemem::kNilServer;
  remotemem::ServerId spare = remotemem::kNilServer;
  std::vector<remotemem::ServerId> zombies;
  std::string error;  // non-empty when setup failed

  bool ok() const { return error.empty(); }
};

FaultBed MakeFaultBed(std::size_t shards, Duration lease_ttl) {
  FaultBed bed;
  cloud::RackConfig config;
  config.buff_size = 64 * kMiB;
  config.controller_shards = shards;
  config.lease_ttl = lease_ttl;
  config.tick_period = 100 * kMillisecond;
  bed.rack = std::make_unique<cloud::Rack>(config);

  const auto profile = acpi::MachineProfile::HpCompaqElite8300();
  bed.user = bed.rack->AddServer("user", profile, {}).id();
  bed.spare = bed.rack->AddServer("spare", profile, {}).id();
  for (std::size_t i = 0; i < kFaultZombies; ++i) {
    auto& z = bed.rack->AddServer("z" + std::to_string(i + 1), profile, {});
    Status pushed = bed.rack->PushToZombie(z.id());
    if (!pushed.ok()) {
      bed.error = "push to zombie failed: " + pushed.ToString();
      return bed;
    }
    bed.zombies.push_back(z.id());
  }
  auto extent = bed.rack->manager(bed.user).AllocExtension(4 * kGiB);
  if (!extent.ok()) {
    bed.error = "initial allocation failed: " + extent.status().ToString();
  }
  return bed;
}

// ---------------------------------------------------------------------------
// faults_controlplane: shard count x failure type x detection timeout.
//
// Reports, per sweep point: time from fault injection back to health, time
// to lease-expiry detection, leases expired, allocations failed during the
// outage, and the orphaned-buffer count after recovery (must be 0).
// ---------------------------------------------------------------------------

Result<Report> RunFaultsControlPlane(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Fault injection: sharded control plane recovery ==\n\n");
  r.Text(StrPrintf(
      "Testbed: %zu zombies + user + spare; one fault fires at t=500ms; the\n"
      "rack then runs lease/heartbeat ticks of 100ms.  Health = guaranteed\n"
      "allocation succeeds, invariants hold, orphaned buffers == 0.\n\n",
      kFaultZombies));

  const std::vector<std::uint64_t> shard_axis = ctx.AxisU64s("shards");
  const std::vector<std::string> fault_axis = ctx.Axis("fault");
  const std::vector<std::uint64_t> detect_axis = ctx.AxisU64s("detect_ms");
  std::vector<std::string> rows;
  for (std::uint64_t shards : shard_axis) {
    for (const std::string& fault : fault_axis) {
      for (std::uint64_t detect : detect_axis) {
        rows.push_back(StrPrintf("s%llu %s %llums",
                                 static_cast<unsigned long long>(shards), fault.c_str(),
                                 static_cast<unsigned long long>(detect)));
      }
    }
  }
  auto table = r.AddSweepTable("faults", "", "shards/fault/ttl", rows,
                               {"recovery (ms)", "detect (ms)", "expiries",
                                "failed allocs", "orphaned"});
  // Failure notes land in per-point slots and are emitted serially after the
  // loop, so -j N workers never append to the report concurrently.
  std::vector<std::string> failures(rows.size());

  const std::uint64_t ticks = ctx.ParamU64("ticks", 30);
  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    const std::size_t shards = static_cast<std::size_t>(pt.U64("shards"));
    const std::string& fault = pt.Value("fault");
    const Duration ttl = static_cast<Duration>(pt.U64("detect_ms")) * kMillisecond;

    FaultBed bed = MakeFaultBed(shards, ttl);
    if (!bed.ok()) {
      failures[pt.index()] = StrPrintf("  (%s: %s)\n", rows[pt.index()].c_str(),
                                       bed.error.c_str());
      return;
    }
    cloud::Rack& rack = *bed.rack;
    const Duration tick_period = 100 * kMillisecond;
    const SimTime fault_at = 5 * tick_period;

    cloud::FaultEvent event;
    event.at = fault_at;
    if (fault == "ctrl_crash") {
      event.kind = cloud::FaultKind::kControllerCrash;
      event.shard = 0;
    } else if (fault == "host_crash") {
      event.kind = cloud::FaultKind::kHostCrash;
      event.host = bed.zombies.front();
    } else if (fault == "partition") {
      event.kind = cloud::FaultKind::kPartition;
      event.shard = 0;
      event.duration = ttl + 2 * tick_period;
    } else {  // hb_drop: flaky heartbeats, shorter than the lease TTL
      event.kind = cloud::FaultKind::kHeartbeatDrop;
      event.host = bed.zombies.front();
      event.duration = ttl / 2;
    }
    cloud::FaultInjector injector(&rack, cloud::FaultPlan{{event}});

    std::uint64_t expiries = 0;
    std::uint64_t failed_allocs = 0;
    SimTime first_expiry = -1;
    SimTime recovered_at = fault_at;  // healthy throughout => 0ms recovery
    for (std::uint64_t t = 0; t < ticks; ++t) {
      injector.AdvanceTo(rack.now() + tick_period);
      const auto expired = rack.Tick();
      expiries += expired.size();
      if (!expired.empty() && first_expiry < 0) {
        first_expiry = rack.now();
      }
      if (rack.now() <= fault_at) {
        continue;  // probe only after the fault fired
      }
      // Health probe: one guaranteed buffer, released immediately.
      auto probe = rack.manager(bed.user).AllocExtension(rack.plane().buff_size());
      if (probe.ok()) {
        (void)rack.manager(bed.user).ReleaseExtent(probe.value());
      } else {
        ++failed_allocs;
      }
      const bool healthy = probe.ok() && rack.plane().CheckInvariants().ok() &&
                           rack.plane().OrphanedBuffers(rack.now()).empty();
      if (!healthy) {
        recovered_at = -1;
      } else if (recovered_at < 0) {
        recovered_at = rack.now();
      }
    }

    const auto orphaned = rack.plane().OrphanedBuffers(rack.now());
    Status invariants = rack.plane().CheckInvariants();
    if (recovered_at < 0 || !orphaned.empty() || !invariants.ok()) {
      failures[pt.index()] = StrPrintf(
          "  (%s: never recovered=%d orphaned=%zu invariants=%s)\n",
          rows[pt.index()].c_str(), recovered_at < 0 ? 1 : 0, orphaned.size(),
          invariants.ok() ? "ok" : invariants.ToString().c_str());
      return;
    }

    const double recovery_ms =
        static_cast<double>((recovered_at - fault_at) / kMillisecond);
    const double detect_ms =
        first_expiry < 0 ? 0.0
                         : static_cast<double>((first_expiry - fault_at) / kMillisecond);
    table.Set(pt.index(), 0, Report::Num(recovery_ms, 0));
    table.Set(pt.index(), 1, Report::Num(detect_ms, 0));
    table.Set(pt.index(), 2, Report::Int(expiries));
    table.Set(pt.index(), 3, Report::Int(failed_allocs));
    table.Set(pt.index(), 4, Report::Int(orphaned.size()));
    rec.Metric("recovery_ms", recovery_ms);
    rec.Metric("detect_ms", detect_ms);
    rec.Metric("lease_expiries", static_cast<double>(expiries));
    rec.Metric("failed_allocs", static_cast<double>(failed_allocs));
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
                  "fault sweep point failed to recover with zero orphans");
  }

  r.Text(
      "\nControl-plane loss heals at the failover threshold (no leases expire:\n"
      "the controller slot keeps answering renewals); host loss and partitions\n"
      "heal at the missed-heartbeat deadline, so detection scales with the\n"
      "lease TTL; sub-TTL heartbeat flaps are absorbed outright.  More shards\n"
      "shrink the blast radius: with N > 1 a single shard outage leaves the\n"
      "other shards' zombie memory allocatable throughout.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("faults_controlplane")
        .Title("Fault injection: sharded control plane recovery")
        .Description("Controller crash, host death, partition and heartbeat "
                     "flap vs shard count and lease TTL; recovery time, "
                     "failed allocations, orphaned buffers (must be 0)")
        .Param({.name = "shards",
                .type = ParamType::kU64,
                .description = "controller shard count",
                .range = ParamRange{.min = 1}})
        .Param({.name = "fault",
                .type = ParamType::kString,
                .description = "which fault fires at t=500ms",
                .choices = {"ctrl_crash", "host_crash", "partition", "hb_drop"}})
        .Param({.name = "detect_ms",
                .type = ParamType::kU64,
                .description = "lease TTL (missed-heartbeat deadline) in ms",
                .range = ParamRange{.min = 100}})
        .Param({.name = "ticks",
                .type = ParamType::kU64,
                .default_value = "30",
                .description = "simulated 100ms ticks to run",
                .range = ParamRange{.min = 10}})
        .Sweep({.axes = {{"shards", {"1", "2", "4"}},
                         {"fault", {"ctrl_crash", "host_crash", "partition", "hb_drop"}},
                         {"detect_ms", {"300", "600"}}}})
        .Runner(RunFaultsControlPlane));

// ---------------------------------------------------------------------------
// faults_timeline: one rack, a scripted multi-fault sequence, narrated tick
// by tick.  Tests inject their own plan through RunOptions::fault_plan.
// ---------------------------------------------------------------------------

Result<Report> RunFaultsTimeline(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Fault timeline: one rack through a scripted fault sequence ==\n\n");

  const std::size_t shards = static_cast<std::size_t>(ctx.ParamU64("shards", 2));
  const Duration ttl = static_cast<Duration>(ctx.ParamU64("detect_ms", 300)) * kMillisecond;
  FaultBed bed = MakeFaultBed(shards, ttl);
  if (!bed.ok()) {
    return Status(ErrorCode::kFailedPrecondition, bed.error);
  }
  cloud::Rack& rack = *bed.rack;
  const Duration tick_period = 100 * kMillisecond;

  cloud::FaultPlan builtin;
  builtin.events = {
      {.at = 5 * tick_period, .kind = cloud::FaultKind::kControllerCrash, .shard = 0},
      {.at = 15 * tick_period,
       .kind = cloud::FaultKind::kHostCrash,
       .host = bed.zombies.front()},
      {.at = 25 * tick_period,
       .kind = cloud::FaultKind::kPartition,
       .shard = shards > 1 ? std::size_t{1} : std::size_t{0},
       .duration = ttl + 2 * tick_period},
      {.at = 38 * tick_period,
       .kind = cloud::FaultKind::kHeartbeatDrop,
       .host = bed.zombies.back(),
       .duration = ttl / 2},
  };
  const cloud::FaultPlan* plan = ctx.fault_plan() != nullptr ? ctx.fault_plan() : &builtin;
  cloud::FaultInjector injector(&rack, *plan);

  std::vector<bool> was_alive(rack.plane().shard_count(), true);
  std::uint64_t expiries = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failed_allocs = 0;
  const std::uint64_t ticks = ctx.ParamU64("ticks", 50);
  for (std::uint64_t t = 0; t < ticks; ++t) {
    injector.AdvanceTo(rack.now() + tick_period);
    for (std::size_t k = 0; k < rack.plane().shard_count(); ++k) {
      if (was_alive[k] && !rack.plane().shard_alive(k)) {
        r.Text(StrPrintf("t=%4llums  shard %zu primary down\n",
                         static_cast<unsigned long long>(rack.now() / kMillisecond + 100),
                         k));
      }
      was_alive[k] = rack.plane().shard_alive(k);
    }
    const auto expired = rack.Tick();
    const unsigned long long now_ms =
        static_cast<unsigned long long>(rack.now() / kMillisecond);
    for (const auto& record : expired) {
      ++expiries;
      r.Text(StrPrintf("t=%4llums  lease expired: host %u (%zu hosted dropped, "
                       "%zu used released)\n",
                       now_ms, record.host, record.hosted_dropped.size(),
                       record.used_released.size()));
    }
    for (std::size_t k = 0; k < rack.plane().shard_count(); ++k) {
      if (!was_alive[k] && rack.plane().shard_alive(k)) {
        ++promotions;
        r.Text(StrPrintf("t=%4llums  shard %zu promoted its warm secondary\n", now_ms, k));
        was_alive[k] = true;
      }
    }
    auto probe = rack.manager(bed.user).AllocExtension(rack.plane().buff_size());
    if (probe.ok()) {
      (void)rack.manager(bed.user).ReleaseExtent(probe.value());
    } else {
      ++failed_allocs;
      r.Text(StrPrintf("t=%4llums  guaranteed allocation FAILED\n", now_ms));
    }
  }

  const auto orphaned = rack.plane().OrphanedBuffers(rack.now());
  Status invariants = rack.plane().CheckInvariants();
  r.Text(StrPrintf("\nend of run: %llu expiries, %llu promotions, %llu failed "
                   "allocs, %zu orphaned buffers, invariants %s\n",
                   static_cast<unsigned long long>(expiries),
                   static_cast<unsigned long long>(promotions),
                   static_cast<unsigned long long>(failed_allocs), orphaned.size(),
                   invariants.ok() ? "ok" : "VIOLATED"));
  r.Metric("lease_expiries", static_cast<double>(expiries));
  r.Metric("promotions", static_cast<double>(promotions));
  r.Metric("failed_allocs", static_cast<double>(failed_allocs));
  r.Metric("orphaned_buffers", static_cast<double>(orphaned.size()));
  if (!invariants.ok()) {
    return invariants;
  }
  if (!orphaned.empty()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "orphaned buffers after the fault timeline");
  }
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("faults_timeline")
        .Title("Fault timeline: rack narrative under a scripted fault sequence")
        .Description("Controller crash, host death, partition and heartbeat "
                     "flap on one rack, narrated tick by tick (tests may "
                     "inject their own FaultPlan)")
        .Param({.name = "shards",
                .type = ParamType::kU64,
                .default_value = "2",
                .description = "controller shard count",
                .range = ParamRange{.min = 1}})
        .Param({.name = "detect_ms",
                .type = ParamType::kU64,
                .default_value = "300",
                .description = "lease TTL (missed-heartbeat deadline) in ms",
                .range = ParamRange{.min = 100}})
        .Param({.name = "ticks",
                .type = ParamType::kU64,
                .default_value = "50",
                .description = "simulated 100ms ticks to run",
                .range = ParamRange{.min = 10}})
        .Runner(RunFaultsTimeline));

}  // namespace
}  // namespace zombie::scenario
