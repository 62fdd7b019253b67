// Registry entries for the example walkthroughs (ports of the historical
// example binaries; run them with `zombieland run ex_<name>`):
// the end-to-end quickstart, rack consolidation, Explicit-SD remote swap,
// the migration demo, and the configurable datacenter energy study.
// Run at full size (no --smoke), table-mode output is byte-identical to the
// pre-port binaries.
#include <algorithm>
#include <string>
#include <vector>

#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/common/report.h"
#include "src/hv/backend.h"
#include "src/migration/migration.h"
#include "src/scenario/registry.h"
#include "src/scenario/testbed.h"
#include "src/sim/dc_sim.h"
#include "src/sim/trace.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;

// ---------------------------------------------------------------------------
// Quickstart: the zombieland API end to end — build the paper's 4-machine
// rack, push a server into Sz through the real OSPM path (Fig. 6), lend its
// memory, allocate a RAM-Extension extent, move real bytes over the
// simulated RDMA fabric into the *suspended* host's DRAM, then wake the
// zombie and watch the extent fall back to the local mirror.
// ---------------------------------------------------------------------------

Result<Report> RunQuickstart(const RunContext& ctx) {
  using cloud::Rack;
  using cloud::RackConfig;
  using cloud::Role;
  using cloud::Server;

  Report r = ctx.MakeReport();
  r.Text("zombieland quickstart\n=====================\n\n");

  // Smoke mode shrinks the materialized rack (the full-size version memsets
  // ~14 GiB of lent zombie RAM, which is the point of the demo but not of a
  // CI smoke pass).
  const Bytes server_memory = ctx.smoke() ? 1 * kGiB : 16 * kGiB;
  const Bytes extent_bytes = ctx.smoke() ? 256 * kMiB : 1 * kGiB;
  const Bytes buff_size = ctx.smoke() ? 16 * kMiB : 64 * kMiB;

  // 1. Assemble the rack.  materialize_memory=true so remote pages carry
  //    real bytes we can verify.
  RackConfig config;
  config.buff_size = buff_size;
  config.materialize_memory = true;
  Rack rack(config);
  auto profile = acpi::MachineProfile::HpCompaqElite8300();
  const cloud::ServerCapacity capacity{.memory = server_memory};
  Server& ctr = rack.AddServer("global-ctr", profile, capacity);
  Server& ctr2 = rack.AddServer("secondary-ctr", profile, capacity);
  Server& user = rack.AddServer("server-A", profile, capacity);
  Server& zombie_box = rack.AddServer("server-C", profile, capacity);
  ctr.set_role(Role::kGlobalController);
  ctr2.set_role(Role::kSecondaryController);
  user.set_role(Role::kUser);
  r.Text(StrPrintf("rack power now: %.1f W (all four servers idle in S0)\n",
                   rack.TotalPowerWatts()));

  // 2. Push server-C into the zombie state.  The OSPM pre-zombie hook makes
  //    its remote-mem-mgr delegate ~90% of its free RAM to the pool before
  //    the board's power rails drop.
  if (auto st = rack.PushToZombie(zombie_box.id()); !st.ok()) {
    return Result<Report>(st.code(), "PushToZombie failed: " + st.message());
  }
  r.Text(StrPrintf(
      "\nserver-C entered %s; suspend path taken:\n",
      std::string(acpi::SleepStateName(zombie_box.machine().state())).c_str()));
  for (const auto& fn : zombie_box.machine().ospm().call_trace()) {
    r.Text(StrPrintf("  %s\n", fn.c_str()));
  }
  r.Text(StrPrintf(
      "server-C lent %.1f GiB to the rack pool; draw fell to %.1f%% of max\n",
      static_cast<double>(zombie_box.lent_memory()) / kGiB,
      zombie_box.machine().PowerPercentNow()));
  r.Metric("lent_gib", static_cast<double>(zombie_box.lent_memory()) / kGiB);

  // 3. Allocate a guaranteed RAM-Extension extent on the user server.
  auto extent = rack.manager(user.id()).AllocExtension(extent_bytes);
  if (!extent.ok()) {
    return Result<Report>(extent.status().code(),
                          "AllocExtension failed: " + extent.status().message());
  }
  r.Text(StrPrintf("\nuser allocated %zu remote buffers (%.1f GiB)\n",
                   extent.value()->buffer_count(),
                   static_cast<double>(extent.value()->capacity()) / kGiB));

  // 4. One-sided RDMA against the sleeping host: write a page, read it back.
  std::vector<std::byte> page(kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>(i & 0xff);
  }
  auto wcost = extent.value()->WritePage(42, page);
  std::vector<std::byte> readback(kPageSize);
  auto rcost = extent.value()->ReadPage(42, readback);
  if (!wcost.ok() || !rcost.ok() || readback != page) {
    return Result<Report>(ErrorCode::kFailedPrecondition,
                          "remote page round-trip FAILED");
  }
  r.Text(StrPrintf("page 42 round-tripped through the zombie's DRAM "
                   "(write %.2f us, read %.2f us) -- its CPU never ran\n",
                   static_cast<double>(wcost.value()) / kMicrosecond,
                   static_cast<double>(rcost.value()) / kMicrosecond));

  // 5. Wake the zombie; the controller reclaims its buffers and the user's
  //    extent transparently falls back to the local backup mirror.
  auto latency = rack.WakeServer(zombie_box.id());
  r.Text(StrPrintf("\nserver-C woke in %.1f s; page 42 now served from the local mirror: ",
                   latency.ok() ? ToSeconds(latency.value()) : -1.0));
  auto after = extent.value()->ReadPage(42, readback);
  r.Text(StrPrintf("%s (%.0f us)\n", after.ok() && readback == page ? "intact" : "LOST",
                   after.ok() ? static_cast<double>(after.value()) / kMicrosecond : 0.0));

  r.Text(StrPrintf("\nrack power now: %.1f W\n", rack.TotalPowerWatts()));
  r.Text("\ndone.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ex_quickstart")
        .Title("Quickstart: the zombieland API end to end")
        .Description("Rack assembly, Sz suspend, RAM-Extension allocation, "
                     "one-sided RDMA against a sleeping host, wake + reclaim")
        .Runner(RunQuickstart));

// ---------------------------------------------------------------------------
// Rack consolidation: a six-server rack with a skewed VM load is
// consolidated by the shared planner (sim/consolidation.h) with ZombieStack's
// relaxed placement — underloaded hosts drain, empty hosts enter Sz and lend
// their RAM, and the rack's power draw drops while every byte of booked
// memory stays reachable.
// ---------------------------------------------------------------------------

void ReportRack(Report& r, const char* id, cloud::Rack& rack, const char* title) {
  auto& table = r.AddTable(id, title,
                           {"server", "state", "VMs", "cpu util", "local mem GiB",
                            "lent GiB", "draw %"});
  for (const auto& server : rack.servers()) {
    table.Row({server->hostname(),
               std::string(acpi::SleepStateName(server->machine().state())),
               std::to_string(server->vms().size()),
               Report::Num(server->CpuUtilization() * 100, 0) + "%",
               Report::Num(static_cast<double>(server->UsedLocalMemory()) / kGiB, 1),
               Report::Num(static_cast<double>(server->lent_memory()) / kGiB, 1),
               Report::Num(server->machine().PowerPercentNow(), 1)});
  }
  r.Text(StrPrintf("rack draw: %.1f W\n\n", rack.TotalPowerWatts()));
}

Report RunRackConsolidation(const RunContext& ctx) {
  using cloud::Server;

  Report r = ctx.MakeReport();
  r.Text("Rack consolidation with zombie servers\n");
  r.Text("======================================\n\n");

  cloud::Rack rack;
  for (int i = 0; i < 6; ++i) {
    rack.AddServer("node" + std::to_string(i + 1),
                   acpi::MachineProfile::DellPrecisionT5810(), {});
  }

  // A skewed load: two busy hosts, two lightly-loaded stragglers.
  auto make_vm = [](hv::VmId id, Bytes mem, std::uint32_t cpus) {
    hv::VmSpec vm;
    vm.id = id;
    vm.name = "vm" + std::to_string(id);
    vm.reserved_memory = mem;
    vm.working_set = mem / 2;
    vm.vcpus = cpus;
    return vm;
  };
  // Fixed topology: a placement refusal here is a bug in the example, not a
  // runtime condition — fail loudly instead of reporting a half-built rack.
  ZOMBIE_CHECK_OK(rack.servers()[0]->HostVm(make_vm(1, 6 * kGiB, 6), 6 * kGiB));
  ZOMBIE_CHECK_OK(rack.servers()[1]->HostVm(make_vm(2, 6 * kGiB, 5), 6 * kGiB));
  ZOMBIE_CHECK_OK(rack.servers()[2]->HostVm(make_vm(3, 2 * kGiB, 1), 2 * kGiB));
  ZOMBIE_CHECK_OK(rack.servers()[3]->HostVm(make_vm(4, 2 * kGiB, 1), 2 * kGiB));

  ReportRack(r, "before", rack, "Before consolidation:");

  // Plan with the ZombieStack constraint: a migrated VM only needs 30% of
  // its working set locally on the target.
  std::vector<Server*> hosts;
  for (const auto& s : rack.servers()) {
    hosts.push_back(s.get());
  }
  const sim::ConsolidationPlan plan =
      sim::PlanConsolidation(RackHostViews(hosts, ZombieStackLocalShare));

  r.Text(StrPrintf("Consolidation plan: %zu migrations, %zu hosts to suspend\n",
                   plan.moves.size(), plan.suspend.size()));
  for (const sim::Move& move : plan.moves) {
    Server* from = hosts[move.from];
    Server* to = hosts[move.to];
    const hv::VmSpec vm = from->vms().at(move.vm);
    r.Text(StrPrintf("  migrate vm%llu: %s -> %s (local share: %.1f GiB of %.1f GiB)\n",
                     static_cast<unsigned long long>(move.vm), from->hostname().c_str(),
                     to->hostname().c_str(), static_cast<double>(ZombieStackLocalShare(vm)) / kGiB,
                     static_cast<double>(vm.reserved_memory) / kGiB));
    // The planner only emits moves it already validated against capacity; a
    // failure here means the plan and the rack disagree — abort, don't
    // render a report that silently lost a VM or left a drained host awake.
    ZOMBIE_CHECK_OK(from->DropVm(move.vm));
    ZOMBIE_CHECK_OK(to->HostVm(vm, ZombieStackLocalShare(vm)));
  }
  for (std::size_t host : plan.suspend) {
    ZOMBIE_CHECK_OK(rack.PushToZombie(hosts[host]->id()));
    r.Text(StrPrintf("  suspend %s to Sz\n", hosts[host]->hostname().c_str()));
  }
  r.Text("\n");

  ReportRack(r, "after", rack, "After consolidation:");

  r.Text(StrPrintf(
      "Remote pool now holds %.1f GiB of zombie memory; the migrated VMs'\n"
      "non-local pages are served from it over one-sided RDMA.\n",
      static_cast<double>(rack.plane().FreeRemoteBytes()) / kGiB));
  r.Metric("free_remote_gib",
           static_cast<double>(rack.plane().FreeRemoteBytes()) / kGiB);
  r.Metric("migrations", static_cast<double>(plan.moves.size()));
  r.Metric("suspended_hosts",
           static_cast<double>(std::count_if(
               rack.servers().begin(), rack.servers().end(), [](const auto& s) {
                 return s->machine().state() != acpi::SleepState::kS0;
               })));
  r.Metric("rack_draw_w", rack.TotalPowerWatts());
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ex_rack_consolidation")
        .Title("Rack consolidation with zombie servers")
        .Description("Neat planner in ZombieStack mode drains a skewed "
                     "six-server rack; drained hosts enter Sz")
        .Runner(RunRackConsolidation));

// ---------------------------------------------------------------------------
// Explicit SD: a VM gets a swap device backed by a zombie server's RAM (the
// Infiniswap-style function of Section 4.5), compared against local SSD and
// HDD swap, on the Elasticsearch workload with 50% visible RAM.
// ---------------------------------------------------------------------------

Report RunRemoteSwap(const RunContext& ctx) {
  using workloads::PenaltyPercent;
  using workloads::RunResult;
  using workloads::WorkloadRunner;

  Report r = ctx.MakeReport();
  r.Text("Explicit SD: remote-RAM swap vs local devices\n");
  r.Text("=============================================\n\n");

  const workloads::AppProfile profile = ctx.Profile(workloads::App::kElasticsearch);
  const double fraction = 0.5;
  WorkloadRunner runner;
  const RunResult baseline = runner.RunLocalOnly(profile);
  r.Text(StrPrintf("workload: %s, %.0f MiB reserved, WSS %.0f MiB, 50%% visible RAM\n",
                   std::string(workloads::AppName(profile.app)).c_str(),
                   static_cast<double>(profile.reserved_memory) / kMiB,
                   static_cast<double>(profile.working_set) / kMiB));
  r.Text(StrPrintf("baseline (all memory local): %.2f s simulated\n\n",
                   baseline.seconds()));

  auto& table = r.AddTable(
      "swap_devices", "",
      {"swap device", "exec (s)", "penalty", "major faults", "writebacks"});

  // Remote RAM served by a zombie server, allocated via GS_alloc_ext.
  Testbed testbed(profile.reserved_memory);
  const RunResult remote = runner.RunExplicitSd(profile, fraction, testbed.backend());
  table.Row({"zombie remote RAM", Report::Num(remote.seconds(), 2),
             Report::Penalty(PenaltyPercent(remote, baseline)),
             std::to_string(remote.pager.major_faults),
             std::to_string(remote.pager.writebacks)});

  auto ssd = hv::MakeLocalSsdBackend();
  const RunResult on_ssd = runner.RunExplicitSd(profile, fraction, ssd.get());
  table.Row({"local SSD", Report::Num(on_ssd.seconds(), 2),
             Report::Penalty(PenaltyPercent(on_ssd, baseline)),
             std::to_string(on_ssd.pager.major_faults),
             std::to_string(on_ssd.pager.writebacks)});

  auto hdd = hv::MakeLocalHddBackend();
  const RunResult on_hdd = runner.RunExplicitSd(profile, fraction, hdd.get());
  table.Row({"local HDD", Report::Num(on_hdd.seconds(), 2),
             Report::Penalty(PenaltyPercent(on_hdd, baseline)),
             std::to_string(on_hdd.pager.major_faults),
             std::to_string(on_hdd.pager.writebacks)});

  // The RAM-Ext alternative for the same split, for contrast.
  Testbed re_bed(profile.reserved_memory);
  const RunResult ram_ext = runner.RunRamExt(profile, fraction, re_bed.backend());
  r.Text(StrPrintf(
      "\nFor contrast, hypervisor-managed RAM Ext at the same 50%% split: %.2f s (%s)\n"
      "-- transparent paging beats a guest-visible swap device because the guest\n"
      "tunes itself down to the smaller RAM it sees (Section 6.4).\n",
      ram_ext.seconds(),
      Report::Penalty(PenaltyPercent(ram_ext, baseline)).c_str()));
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ex_remote_swap")
        .Title("Explicit SD: remote-RAM swap vs local devices")
        .Description("Zombie-RAM swap vs local SSD/HDD on Elasticsearch at "
                     "50% visible RAM, with the RAM-Ext contrast")
        .Runner(RunRemoteSwap));

// ---------------------------------------------------------------------------
// Migration demo: vanilla pre-copy live migration vs the ZombieStack
// protocol (Section 5.3) for a 7 GiB VM, with per-round transfer detail and
// a dirty-rate sensitivity sweep.
// ---------------------------------------------------------------------------

Report RunVmMigrationDemo(const RunContext& ctx) {
  using migration::MigrationConfig;
  using migration::MigrationEstimate;
  using migration::PreCopyMigrate;
  using migration::ZombieMigrate;

  Report r = ctx.MakeReport();
  r.Text("VM migration: vanilla pre-copy vs ZombieStack\n");
  r.Text("=============================================\n\n");

  hv::VmSpec vm;
  vm.id = 1;
  vm.name = "demo-vm";
  vm.reserved_memory = 7 * kGiB;
  vm.working_set = 3 * kGiB;

  // Round-by-round detail for the default dirty rate.
  const MigrationEstimate native = PreCopyMigrate(vm);
  auto& rounds = r.AddTable("rounds", "Pre-copy rounds (7 GiB VM, 3 GiB WSS):",
                            {"round", "transferred (MiB)", "duration (s)"});
  for (std::size_t i = 0; i < native.rounds.size(); ++i) {
    const bool stop_and_copy = i + 1 == native.rounds.size();
    rounds.Row(
        {stop_and_copy ? "stop-and-copy" : std::to_string(i + 1),
         Report::Num(static_cast<double>(native.rounds[i].transferred) / kMiB, 0),
         Report::Num(ToSeconds(native.rounds[i].duration), 3)});
  }
  r.Text(StrPrintf("total %.2f s, downtime %.0f ms, %.2f GiB moved\n\n",
                   native.seconds(), ToSeconds(native.downtime) * 1000,
                   static_cast<double>(native.bytes_moved) / kGiB));

  const MigrationEstimate zombie = ZombieMigrate(vm, /*local_fraction=*/0.5,
                                                 /*remote_buffers=*/56);
  r.Text("ZombieStack: stop-and-copy of the hot local part only.\n");
  r.Text(StrPrintf(
      "total %.2f s, downtime %.0f ms, %.2f GiB moved, 56 ownership updates\n\n",
      zombie.seconds(), ToSeconds(zombie.downtime) * 1000,
      static_cast<double>(zombie.bytes_moved) / kGiB));

  // Sensitivity to the dirty rate: pre-copy degrades with write-heavy VMs,
  // ZombieStack does not (the VM is stopped during its single copy).
  auto& sweep = r.AddTable("dirty_rate", "Sensitivity to the VM's dirty rate:",
                           {"dirty WSS/s", "pre-copy (s)", "pre-copy downtime (ms)",
                            "zombiestack (s)"});
  for (double rate : {0.02, 0.08, 0.20, 0.40}) {
    MigrationConfig config;
    config.dirty_wss_fraction_per_sec = rate;
    const auto pre = PreCopyMigrate(vm, config);
    const auto zs = ZombieMigrate(vm, 0.5, 56, config);
    sweep.Row({Report::Num(rate, 2), Report::Num(pre.seconds(), 2),
               Report::Num(ToSeconds(pre.downtime) * 1000, 0),
               Report::Num(zs.seconds(), 2)});
  }
  r.Text(
      "\nThe remote cold pages never move: after the switch the destination host\n"
      "addresses the same zombie buffers, only their ownership pointers change.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ex_vm_migration")
        .Title("VM migration: vanilla pre-copy vs ZombieStack")
        .Description("Per-round pre-copy detail and the dirty-rate "
                     "sensitivity sweep for a 7 GiB VM")
        .Runner(RunVmMigrationDemo));

// ---------------------------------------------------------------------------
// Datacenter scenario: replay a synthetic cluster trace under all four
// resource-management policies — a configurable, small-scale version of the
// Fig. 10 study.  Parameters (CLI --set): servers, tasks, mem_ratio.
// ---------------------------------------------------------------------------

sim::TraceConfig DatacenterTrace() {
  sim::TraceConfig config;
  config.seed = 7;
  config.servers = 100;
  config.tasks = 2000;
  config.horizon = 1 * kDay;
  return config;
}

Report RunDatacenterEnergy(const RunContext& ctx) {
  using sim::DcResult;
  using sim::Trace;

  Report r = ctx.MakeReport();

  sim::TraceConfig config = DatacenterTrace();
  config.servers = ctx.ParamU64("servers", config.servers);
  config.tasks = ctx.ParamU64("tasks", config.tasks);

  r.Text(StrPrintf("Datacenter energy study: %zu servers, %zu tasks, 1 simulated day\n\n",
                   config.servers, config.tasks));

  Trace trace = sim::GenerateTrace(config);
  if (ctx.HasParam("mem_ratio")) {
    const double ratio = ctx.ParamDouble("mem_ratio", 1.0);
    trace = sim::WithMemoryRatio(trace, ratio);
    r.Text(StrPrintf("memory bookings pinned to %.1fx CPU bookings\n\n", ratio));
  }

  const auto profile = acpi::MachineProfile::DellPrecisionT5810();
  auto& table = r.AddTable("policies", "",
                           {"policy", "energy (Emax*h)", "saving", "peak suspended",
                            "migrations", "mean active", "mem servers"});
  for (const DcResult& result : sim::RunAllPolicies(trace, profile)) {
    table.Row({std::string(PolicyName(result.policy)),
               Report::Num(result.energy_units, 1),
               Report::Num(result.saving_percent, 1) + "%",
               std::to_string(result.suspended_peak), std::to_string(result.migrations),
               Report::Num(result.mean_active_servers, 1),
               std::to_string(result.memory_servers_peak)});
    RecordDecisionMetrics(r, result);
  }

  r.Text(
      "\nZombieStack packs more VMs per active server because a VM only needs a\n"
      "fraction of its memory locally; drained servers keep serving their RAM\n"
      "from the Sz state at ~11% of max power.\n"
      "\nTry: zombieland run ex_datacenter_energy --set servers=100 --set tasks=2000 "
      "--set mem_ratio=2    (the paper's modified traces)\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ex_datacenter_energy")
        .Title("Datacenter energy study (configurable Fig. 10)")
        .Description("Synthetic cluster trace under all four policies; "
                     "--set servers/tasks/mem_ratio to reshape it")
        .Param({.name = "servers",
                .type = ParamType::kU64,
                .description = "rack size (default: trace config)",
                .range = ParamRange{.min = 1}})
        .Param({.name = "tasks",
                .type = ParamType::kU64,
                .description = "task count (default: trace config)",
                .range = ParamRange{.min = 1}})
        .Param({.name = "mem_ratio",
                .type = ParamType::kDouble,
                .description = "pin memory bookings to ratio x CPU bookings",
                .range = ParamRange{.min = 0.0}})
        .Runner(RunDatacenterEnergy));

}  // namespace
}  // namespace zombie::scenario
