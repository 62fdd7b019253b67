// Registry entries for the migration experiments: Fig. 9 (migration time vs
// working-set size) and the BUFF_SIZE granularity ablation.  Ports of the
// historical bench binaries; table-mode output is byte-identical.
#include <cstdint>
#include <string>
#include <vector>

#include "src/cloud/rack.h"
#include "src/common/report.h"
#include "src/migration/migration.h"
#include "src/scenario/registry.h"

namespace zombie::scenario {
namespace {

using report::Report;
using report::StrPrintf;

// ---------------------------------------------------------------------------
// Figure 9: migration time vs working-set size — vanilla pre-copy live
// migration against the ZombieStack protocol (stop-and-copy of the local hot
// part plus remote ownership-pointer updates).
// ---------------------------------------------------------------------------

Report RunFig09(const RunContext& ctx) {
  using hv::VmSpec;
  using migration::MigrationEstimate;
  using migration::PreCopyMigrate;
  using migration::ZombieMigrate;

  Report r = ctx.MakeReport();
  r.Text("== Figure 9: migration time vs WSS (native pre-copy vs ZombieStack) ==\n\n");

  const Bytes reserved = 7 * kGiB;  // the Section 6.2 VM
  const std::vector<int> wss_ratios = {20, 40, 60, 80};
  const double local_fraction = 0.5;

  auto& table = r.AddTable("migration", "",
                           {"WSS ratio %", "native (s)", "zombiestack (s)",
                            "native bytes (GiB)", "zombie bytes (GiB)"});
  for (int ratio : wss_ratios) {
    VmSpec vm;
    vm.id = 1;
    vm.reserved_memory = reserved;
    vm.working_set = static_cast<Bytes>(ratio / 100.0 * static_cast<double>(reserved));
    const MigrationEstimate native = PreCopyMigrate(vm);
    // ZombieStack keeps ~50% of reserved memory local; remote memory spans
    // the remaining buffers (64 MiB each).
    const std::size_t buffers =
        static_cast<std::size_t>((vm.reserved_memory / 2) / (64 * kMiB));
    const MigrationEstimate zombie = ZombieMigrate(vm, local_fraction, buffers);
    table.Row({std::to_string(ratio), Report::Num(native.seconds(), 2),
               Report::Num(zombie.seconds(), 2),
               Report::Num(static_cast<double>(native.bytes_moved) / kGiB, 2),
               Report::Num(static_cast<double>(zombie.bytes_moved) / kGiB, 2)});
  }

  r.Text(
      "\nShape (paper): native time is nearly flat in WSS (fixed pre-copy\n"
      "iterations over the full VM memory); ZombieStack transfers only the local\n"
      "hot part, so it grows with WSS but stays well below native, especially at\n"
      "low WSS.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("fig09")
        .Title("Figure 9: migration time vs WSS (native pre-copy vs ZombieStack)")
        .Description("Pre-copy live migration vs the ZombieStack "
                     "stop-and-copy + ownership-update protocol")
        .Runner(RunFig09));

// ---------------------------------------------------------------------------
// Ablation: the rack-uniform BUFF_SIZE granularity.
//
// The paper fixes a uniform remote-buffer size but leaves the value open.
// The trade-off: small buffers spread an allocation across more hosts
// (smaller blast radius on reclaim, more control-plane work and ownership
// updates on migration); large buffers concentrate it.
// ---------------------------------------------------------------------------

Report RunAblationBuffSize(const RunContext& ctx) {
  Report r = ctx.MakeReport();
  r.Text("== Ablation: BUFF_SIZE granularity ==\n\n");
  r.Text("Scenario: two zombies lend ~14 GiB each; a user allocates 8 GiB and\n");
  r.Text("later migrates the VM (56% local).\n\n");

  std::vector<std::string> rows;
  for (std::uint64_t mib : ctx.AxisU64s("buff_mib")) {
    rows.push_back(Report::Num(static_cast<double>(mib), 0) + " MiB");
  }
  auto table = r.AddSweepTable(
      "buff_size", "", "BUFF_SIZE", rows,
      {"buffers/alloc", "hosts spanned", "reclaim blast (buffers)",
       "migration ownership cost (ms)"});
  // Failure notes land in per-point slots and are emitted serially after the
  // loop, so -j N workers never append to the report concurrently.
  std::vector<std::string> failures(rows.size());
  ctx.ForEachSweepPoint(r, [&](const SweepPoint& pt, report::SweepPointRecord& rec) {
    const Bytes buff = pt.U64("buff_mib") * kMiB;
    cloud::RackConfig config;
    config.buff_size = buff;
    cloud::Rack rack(config);
    const auto profile = acpi::MachineProfile::HpCompaqElite8300();
    auto& user = rack.AddServer("user", profile, {});
    auto& z1 = rack.AddServer("z1", profile, {});
    auto& z2 = rack.AddServer("z2", profile, {});
    if (!rack.PushToZombie(z1.id()).ok() || !rack.PushToZombie(z2.id()).ok()) {
      return;
    }
    auto extent = rack.manager(user.id()).AllocExtension(8 * kGiB);
    if (!extent.ok()) {
      failures[pt.AxisIndex("buff_mib")] =
          StrPrintf("  (BUFF_SIZE %llu MiB: allocation failed: %s)\n",
                    static_cast<unsigned long long>(buff / kMiB),
                    extent.status().ToString().c_str());
      return;
    }
    // Hosts spanned by the allocation.
    std::size_t hosts = 0;
    std::size_t z1_buffers = 0;
    for (auto id : extent.value()->buffer_ids()) {
      auto rec = rack.plane().primary(rack.plane().ShardOfBuffer(id)).db().Find(id);
      if (rec.has_value() && rec->host == z1.id()) {
        ++z1_buffers;
      }
    }
    hosts = (z1_buffers > 0 ? 1 : 0) +
            (z1_buffers < extent.value()->buffer_count() ? 1 : 0);

    const double ownership_ms =
        static_cast<double>(extent.value()->buffer_count()) *
        ToSeconds(zombie::migration::kOwnershipUpdateCost) * 1000;

    const std::size_t row = pt.AxisIndex("buff_mib");
    table.Set(row, 0, std::to_string(extent.value()->buffer_count()));
    table.Set(row, 1, std::to_string(hosts));
    table.Set(row, 2, std::to_string(z1_buffers));
    table.Set(row, 3, Report::Num(ownership_ms, 1));
    rec.Metric("buffers_per_alloc",
               static_cast<double>(extent.value()->buffer_count()));
    rec.Metric("hosts_spanned", static_cast<double>(hosts));
    rec.Metric("reclaim_blast_buffers", static_cast<double>(z1_buffers));
    rec.Metric("ownership_cost_ms", ownership_ms);
  });
  for (const std::string& failure : failures) {
    if (!failure.empty()) {
      r.Text(failure);
    }
  }

  r.Text(
      "\nSmaller buffers spread the allocation and shrink the per-host reclaim\n"
      "blast radius, at the price of more ownership updates during migration.\n"
      "64 MiB (the library default) balances both.\n");
  return r;
}

ZOMBIE_REGISTER_SCENARIO(
    ScenarioBuilder("ablation_buff_size")
        .Title("Ablation: BUFF_SIZE granularity")
        .Description("Remote-buffer size trade-off: reclaim blast radius vs "
                     "migration ownership-update cost")
        .Param({.name = "buff_mib",
                .type = ParamType::kU64,
                .description = "rack-uniform BUFF_SIZE in MiB",
                .range = ParamRange{.min = 1}})
        .Sweep({.axes = {{"buff_mib", {"16", "64", "256", "1024"}}}})
        .Runner(RunAblationBuffSize));

}  // namespace
}  // namespace zombie::scenario
