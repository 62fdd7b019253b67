// Integration tests: full-stack scenarios exercising several modules
// together — the complete zombie lifecycle over the rack, workloads paging
// against real zombie memory, consolidation followed by suspension, and a
// migration that leaves its remote part in place.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/hv/backend.h"
#include "src/migration/migration.h"
#include "src/scenario/testbed.h"
#include "src/sim/consolidation.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie {
namespace {

using cloud::Rack;
using cloud::RackConfig;
using cloud::Role;
using cloud::Server;
using cloud::ServerCapacity;

RackConfig TestRack(Bytes buff = 4 * kMiB, bool materialize = false) {
  RackConfig config;
  config.buff_size = buff;
  config.materialize_memory = materialize;
  return config;
}

hv::VmSpec MakeVm(hv::VmId id, Bytes reserved, std::uint32_t cpus) {
  hv::VmSpec vm;
  vm.id = id;
  vm.reserved_memory = reserved;
  vm.working_set = reserved / 2;
  vm.vcpus = cpus;
  return vm;
}

// ---------------------------------------------------------------------------
// Scenario 1: full zombie lifecycle — suspend, lend, page against the
// sleeping host, reclaim on wake, re-delegate.
// ---------------------------------------------------------------------------

TEST(Integration, ZombieLifecycleTwice) {
  Rack rack(TestRack());
  auto profile = acpi::MachineProfile::HpCompaqElite8300();
  Server& user = rack.AddServer("user", profile, {8, 16 * kGiB});
  Server& host = rack.AddServer("host", profile, {8, 16 * kGiB});

  for (int cycle = 0; cycle < 2; ++cycle) {
    ASSERT_TRUE(rack.PushToZombie(host.id()).ok()) << "cycle " << cycle;
    EXPECT_TRUE(rack.fabric().NodeMemoryAccessible(host.node()));

    auto extent = rack.manager(user.id()).AllocExtension(512 * kMiB);
    ASSERT_TRUE(extent.ok()) << extent.status().ToString();
    ASSERT_TRUE(extent.value()->WritePage(0, {}).ok());
    ASSERT_TRUE(extent.value()->ReadPage(0, {}).ok());

    ASSERT_TRUE(rack.WakeServer(host.id()).ok());
    EXPECT_EQ(host.machine().state(), acpi::SleepState::kS0);
    EXPECT_EQ(rack.plane().FreeRemoteBytes(), 0u);
    // The user's page survived via the mirror.
    EXPECT_TRUE(extent.value()->ReadPage(0, {}).ok());
    ASSERT_TRUE(rack.manager(user.id()).ReleaseExtent(extent.value()).ok());
  }
}

// ---------------------------------------------------------------------------
// Scenario 2: a real workload paging against a zombie server's memory,
// cross-checked against a plain device model of the same latency.
// ---------------------------------------------------------------------------

TEST(Integration, WorkloadOverZombieMemoryMatchesDeviceModel) {
  Rack rack(TestRack());
  auto profile = acpi::MachineProfile::HpCompaqElite8300();
  Server& user = rack.AddServer("user", profile, {8, 16 * kGiB});
  Server& host = rack.AddServer("host", profile, {8, 16 * kGiB});
  ASSERT_TRUE(rack.PushToZombie(host.id()).ok());

  workloads::AppProfile app = workloads::DataCachingProfile();
  app.accesses = 300'000;
  auto extent = rack.manager(user.id()).AllocExtension(app.reserved_memory);
  ASSERT_TRUE(extent.ok());
  hv::RemoteBackend remote(extent.value());

  workloads::WorkloadRunner runner;
  const auto over_rack = runner.RunRamExt(app, 0.2, &remote);
  EXPECT_GT(over_rack.pager.major_faults, 0u);

  // A device backend with the fabric's one-sided 4 KiB cost must price the
  // same workload within a few percent (the extent adds no data path cost).
  const Duration page_cost = rack.fabric().params().OneSidedCost(kPageSize);
  hv::DeviceBackend device("model", {page_cost, page_cost});
  const auto over_model = runner.RunRamExt(app, 0.2, &device);
  EXPECT_EQ(over_rack.pager.faults, over_model.pager.faults);
  EXPECT_NEAR(static_cast<double>(over_rack.sim_time),
              static_cast<double>(over_model.sim_time),
              0.02 * static_cast<double>(over_model.sim_time));
}

// ---------------------------------------------------------------------------
// Scenario 3: placement -> consolidation -> zombie suspension -> power drop,
// with the remote pool sized by what the zombies actually lent.
// ---------------------------------------------------------------------------

TEST(Integration, ConsolidateThenSuspendDropsPower) {
  Rack rack(TestRack());
  auto profile = acpi::MachineProfile::DellPrecisionT5810();
  for (int i = 0; i < 4; ++i) {
    rack.AddServer("node" + std::to_string(i), profile, {8, 16 * kGiB});
  }
  std::vector<Server*> hosts;
  for (const auto& s : rack.servers()) {
    hosts.push_back(s.get());
  }

  // Initial placement through Nova: one busy host with room for the two
  // stragglers' vCPUs and one more, and an idle node3.
  cloud::NovaScheduler nova;
  auto place = [&](hv::VmId id, Bytes mem, std::uint32_t cpus, Server* target) {
    ASSERT_TRUE(target->HostVm(MakeVm(id, mem, cpus), mem).ok());
  };
  place(1, 6 * kGiB, 5, hosts[0]);
  place(2, 2 * kGiB, 1, hosts[1]);
  place(3, 2 * kGiB, 1, hosts[2]);

  const double power_before = rack.TotalPowerPercent();

  const auto plan = sim::PlanConsolidation(
      scenario::RackHostViews(hosts, scenario::ZombieStackLocalShare));
  EXPECT_GE(plan.moves.size(), 2u);
  for (const auto& move : plan.moves) {
    const hv::VmSpec vm = hosts[move.from]->vms().at(move.vm);
    ASSERT_TRUE(hosts[move.from]->DropVm(move.vm).ok());
    ASSERT_TRUE(hosts[move.to]->HostVm(vm, scenario::ZombieStackLocalShare(vm)).ok());
  }
  // The two drained stragglers and the idle node3 all enter Sz.
  EXPECT_EQ(plan.suspend, (std::vector<std::size_t>{1, 2, 3}));
  for (std::size_t host : plan.suspend) {
    ASSERT_TRUE(rack.PushToZombie(hosts[host]->id()).ok());
  }

  EXPECT_LT(rack.TotalPowerPercent(), power_before - 10.0);
  EXPECT_GT(rack.plane().FreeRemoteBytes(), 20 * kGiB);
  // Every VM still has its booked memory reachable: local + pool.
  for (Server* server : hosts) {
    for (const auto& [vm_id, vm] : server->vms()) {
      const Bytes local = server->LocalBytesOf(vm_id);
      EXPECT_LE(local, vm.reserved_memory);
      EXPECT_LE(vm.reserved_memory - local, rack.plane().FreeRemoteBytes());
    }
  }
  // And the placement filter would admit a VM larger than node0's free
  // local memory now: half of it lives in the pool.
  nova.set_remote_pool(rack.plane().FreeRemoteBytes());
  ASSERT_LT(hosts[0]->FreeLocalMemory(), 12 * kGiB);
  EXPECT_TRUE(nova.Place(hosts, MakeVm(9, 12 * kGiB, 1)).has_value());
}

// ---------------------------------------------------------------------------
// Scenario 4: migration decision integrated with rack state — migrating a
// VM between hosts whose remote part stays in place.
// ---------------------------------------------------------------------------

TEST(Integration, MigrationUsesRemoteBufferCount) {
  Rack rack(TestRack(64 * kMiB));
  auto profile = acpi::MachineProfile::HpCompaqElite8300();
  Server& a = rack.AddServer("a", profile, {8, 16 * kGiB});
  rack.AddServer("b", profile, {8, 16 * kGiB});
  Server& z = rack.AddServer("z", profile, {8, 16 * kGiB});
  ASSERT_TRUE(rack.PushToZombie(z.id()).ok());

  // VM with half its memory remote.
  hv::VmSpec vm = MakeVm(1, 8 * kGiB, 4);
  ASSERT_TRUE(a.HostVm(vm, 4 * kGiB).ok());
  auto extent = rack.manager(a.id()).AllocExtension(4 * kGiB);
  ASSERT_TRUE(extent.ok());

  const auto estimate =
      migration::ZombieMigrate(vm, 0.5, extent.value()->buffer_count());
  const auto native = migration::PreCopyMigrate(vm);
  EXPECT_LT(estimate.total_time, native.total_time);
  EXPECT_EQ(estimate.bytes_moved, vm.working_set);  // hot part = WSS (4 GiB)
}

}  // namespace
}  // namespace zombie
