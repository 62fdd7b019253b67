// Unit and integration tests for the cloud layer: server bookkeeping, the
// wired rack (Fig. 7), placement (Section 5.1), Neat consolidation
// (Section 5.2), the Oasis baseline and the Fig. 4 rack-energy estimator.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cloud/consolidation.h"
#include "src/cloud/oasis.h"
#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/cloud/rack_energy.h"
#include "src/cloud/server.h"

namespace zombie::cloud {
namespace {

hv::VmSpec MakeVm(hv::VmId id, Bytes reserved, std::uint32_t vcpus, Bytes wss = 0) {
  hv::VmSpec vm;
  vm.id = id;
  vm.name = "vm-" + std::to_string(id);
  vm.reserved_memory = reserved;
  vm.vcpus = vcpus;
  vm.working_set = wss == 0 ? reserved / 2 : wss;
  return vm;
}

RackConfig SmallRack() {
  RackConfig config;
  config.buff_size = 64 * kMiB;
  config.materialize_memory = false;
  return config;
}

// ---------------------------------------------------------------------------
// Server bookkeeping.
// ---------------------------------------------------------------------------

TEST(Server, CapacityAccounting) {
  Server s(1, "s1", acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
  ASSERT_TRUE(s.HostVm(MakeVm(1, 4 * kGiB, 4), 4 * kGiB).ok());
  EXPECT_EQ(s.UsedCpus(), 4u);
  EXPECT_EQ(s.UsedLocalMemory(), 4 * kGiB);
  EXPECT_EQ(s.FreeLocalMemory(), 12 * kGiB);
  EXPECT_DOUBLE_EQ(s.CpuUtilization(), 0.5);
  ASSERT_TRUE(s.DropVm(1).ok());
  EXPECT_EQ(s.UsedCpus(), 0u);
}

TEST(Server, RejectsOverCommit) {
  Server s(1, "s1", acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
  EXPECT_FALSE(s.HostVm(MakeVm(1, 4 * kGiB, 16), 4 * kGiB).ok());   // cpus
  EXPECT_FALSE(s.HostVm(MakeVm(2, 32 * kGiB, 4), 32 * kGiB).ok());  // memory
  EXPECT_FALSE(s.HostVm(MakeVm(3, 4 * kGiB, 4), 8 * kGiB).ok());    // local > reserved
}

TEST(Server, LentMemoryShrinksCapacity) {
  Server s(1, "s1", acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
  s.set_lent_memory(12 * kGiB);
  EXPECT_EQ(s.FreeLocalMemory(), 4 * kGiB);
  EXPECT_FALSE(s.HostVm(MakeVm(1, 8 * kGiB, 4), 8 * kGiB).ok());
}

TEST(Server, PartialLocalHosting) {
  Server s(1, "s1", acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
  // A VM with 8 GiB reserved but only 4 GiB local (rest remote).
  ASSERT_TRUE(s.HostVm(MakeVm(1, 8 * kGiB, 4), 4 * kGiB).ok());
  EXPECT_EQ(s.LocalBytesOf(1), 4 * kGiB);
  EXPECT_EQ(s.UsedLocalMemory(), 4 * kGiB);
}

// ---------------------------------------------------------------------------
// Rack integration (Fig. 7 wiring).
// ---------------------------------------------------------------------------

class RackTest : public ::testing::Test {
 protected:
  RackTest() : rack_(SmallRack()) {
    for (int i = 0; i < 4; ++i) {
      rack_.AddServer("node" + std::to_string(i + 1),
                      acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
    }
  }
  Rack rack_;
};

TEST_F(RackTest, PushToZombieDelegatesMemory) {
  const auto id = rack_.servers()[2]->id();
  ASSERT_TRUE(rack_.PushToZombie(id).ok());
  Server* server = rack_.FindServer(id);
  EXPECT_EQ(server->machine().state(), acpi::SleepState::kSz);
  EXPECT_EQ(server->role(), Role::kZombie);
  EXPECT_GT(server->lent_memory(), 12 * kGiB);  // ~90% of 16 GiB free
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), server->lent_memory());
  EXPECT_TRUE(rack_.plane().IsZombie(id));
  // The zombie still serves one-sided RDMA.
  EXPECT_TRUE(rack_.fabric().NodeMemoryAccessible(server->node()));
  EXPECT_FALSE(rack_.fabric().NodeCanInitiate(server->node()));
}

TEST_F(RackTest, PushToZombieRefusedWithVms) {
  const auto id = rack_.servers()[0]->id();
  ASSERT_TRUE(rack_.FindServer(id)->HostVm(MakeVm(1, 2 * kGiB, 2), 2 * kGiB).ok());
  EXPECT_EQ(rack_.PushToZombie(id).code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RackTest, WakeReclaimsLentMemory) {
  const auto id = rack_.servers()[2]->id();
  ASSERT_TRUE(rack_.PushToZombie(id).ok());
  const Bytes lent = rack_.FindServer(id)->lent_memory();
  EXPECT_GT(lent, 0u);
  auto latency = rack_.WakeServer(id);
  ASSERT_TRUE(latency.ok());
  EXPECT_GT(latency.value(), 0);
  EXPECT_EQ(rack_.FindServer(id)->machine().state(), acpi::SleepState::kS0);
  EXPECT_EQ(rack_.FindServer(id)->lent_memory(), 0u);
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), 0u);
}

TEST_F(RackTest, UserAllocatesZombieMemoryEndToEnd) {
  const auto zombie_id = rack_.servers()[3]->id();
  ASSERT_TRUE(rack_.PushToZombie(zombie_id).ok());
  auto& user_mgr = rack_.manager(rack_.servers()[0]->id());
  auto extent = user_mgr.AllocExtension(1 * kGiB);
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  EXPECT_GE(extent.value()->capacity(), 1 * kGiB);
  // Paging traffic works against the suspended host.
  EXPECT_TRUE(extent.value()->WritePage(0, {}).ok());
  EXPECT_TRUE(extent.value()->ReadPage(0, {}).ok());
}

TEST_F(RackTest, ReclaimNoticeReachesUserManager) {
  const auto zombie_id = rack_.servers()[3]->id();
  ASSERT_TRUE(rack_.PushToZombie(zombie_id).ok());
  auto& user_mgr = rack_.manager(rack_.servers()[0]->id());
  auto extent = user_mgr.AllocExtension(512 * kMiB);
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE(extent.value()->WritePage(1, {}).ok());

  // The zombie wakes: its buffers are reclaimed, the user's extent must
  // serve that page from the local mirror now.
  ASSERT_TRUE(rack_.WakeServer(zombie_id).ok());
  auto cost = extent.value()->ReadPage(1, {});
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(extent.value()->mirror_reads(), 1u);
}

TEST_F(RackTest, PowerDropsWhenServersGoZombie) {
  const double before = rack_.TotalPowerPercent();
  ASSERT_TRUE(rack_.PushToZombie(rack_.servers()[2]->id()).ok());
  ASSERT_TRUE(rack_.PushToZombie(rack_.servers()[3]->id()).ok());
  const double after = rack_.TotalPowerPercent();
  EXPECT_LT(after, before - 15.0);  // two servers fell from ~54% to ~12.7%
  EXPECT_GT(rack_.TotalPowerWatts(), 0.0);
}

TEST_F(RackTest, ControllerFailoverPromotesSecondary) {
  const auto zombie_id = rack_.servers()[3]->id();
  ASSERT_TRUE(rack_.PushToZombie(zombie_id).ok());
  const Bytes pool_before = rack_.plane().FreeRemoteBytes();

  rack_.PumpHeartbeat();  // healthy beat
  rack_.FailPrimaryController();
  // Three silent monitor ticks trigger failover.
  rack_.PumpHeartbeat();
  rack_.PumpHeartbeat();
  rack_.PumpHeartbeat();

  // The promoted controller carries the replicated pool state.
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), pool_before);
  EXPECT_TRUE(rack_.plane().IsZombie(zombie_id));
  // And the rack keeps operating: a user can still allocate.
  auto extent = rack_.manager(rack_.servers()[0]->id()).AllocExtension(256 * kMiB);
  EXPECT_TRUE(extent.ok()) << extent.status().ToString();
}

TEST_F(RackTest, SleepWithoutLendingKeepsPoolEmpty) {
  ASSERT_TRUE(rack_.PushToSleep(rack_.servers()[1]->id(), acpi::SleepState::kS3).ok());
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), 0u);
  EXPECT_FALSE(
      rack_.fabric().NodeMemoryAccessible(rack_.servers()[1]->node()));
}

// ---------------------------------------------------------------------------
// Placement (Section 5.1).
// ---------------------------------------------------------------------------

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() {
    for (int i = 0; i < 3; ++i) {
      servers_.push_back(std::make_unique<Server>(
          i + 1, "s" + std::to_string(i + 1), acpi::MachineProfile::HpCompaqElite8300(),
          ServerCapacity{8, 16 * kGiB}));
    }
  }

  std::vector<Server*> Hosts() {
    std::vector<Server*> out;
    for (auto& s : servers_) {
      out.push_back(s.get());
    }
    return out;
  }

  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(PlacementTest, VanillaFilterNeedsFullMemory) {
  PlacementConfig config;
  config.local_memory_floor = 1.0;  // vanilla Nova
  NovaScheduler nova(config);
  const auto vm = MakeVm(1, 24 * kGiB, 4);  // bigger than any host
  EXPECT_FALSE(nova.Place(Hosts(), vm).has_value());
}

TEST_F(PlacementTest, RelaxedFilterUsesRemotePool) {
  PlacementConfig config;
  config.local_memory_floor = 0.5;
  config.remote_pool_available = 16 * kGiB;
  NovaScheduler nova(config);
  const auto vm = MakeVm(1, 24 * kGiB, 4);
  const auto decision = nova.Place(Hosts(), vm);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->local_bytes, 16 * kGiB);
  EXPECT_EQ(decision->remote_bytes, 8 * kGiB);
}

TEST_F(PlacementTest, RelaxedFilterStillNeedsPool) {
  PlacementConfig config;
  config.local_memory_floor = 0.5;
  config.remote_pool_available = 0;  // no zombies yet
  NovaScheduler nova(config);
  EXPECT_FALSE(nova.Place(Hosts(), MakeVm(1, 24 * kGiB, 4)).has_value());
}

TEST_F(PlacementTest, SuspendedHostsFiltered) {
  ASSERT_TRUE(servers_[0]->machine().Suspend(acpi::SleepState::kS3).ok());
  NovaScheduler nova;
  const auto decision = nova.Place(Hosts(), MakeVm(1, 2 * kGiB, 2));
  ASSERT_TRUE(decision.has_value());
  EXPECT_NE(decision->host, servers_[0]->id());
}

TEST_F(PlacementTest, StackPrefersBusiestHost) {
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(9, 2 * kGiB, 4), 2 * kGiB).ok());
  PlacementConfig config;
  config.strategy = PlacementStrategy::kStack;
  NovaScheduler nova(config);
  const auto decision = nova.Place(Hosts(), MakeVm(1, 2 * kGiB, 2));
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->host, servers_[1]->id());
}

TEST_F(PlacementTest, SpreadPrefersEmptiestHost) {
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(9, 2 * kGiB, 4), 2 * kGiB).ok());
  PlacementConfig config;
  config.strategy = PlacementStrategy::kSpread;
  NovaScheduler nova(config);
  const auto decision = nova.Place(Hosts(), MakeVm(1, 2 * kGiB, 2));
  ASSERT_TRUE(decision.has_value());
  EXPECT_NE(decision->host, servers_[1]->id());
}

// ---------------------------------------------------------------------------
// Consolidation (Section 5.2).
// ---------------------------------------------------------------------------

class ConsolidationTest : public PlacementTest {};

TEST_F(ConsolidationTest, DrainsUnderloadedHost) {
  // s1 nearly full, s2 almost idle: s2 should drain into s1.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 4 * kGiB, 5), 4 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 2 * kGiB, 1), 2 * kGiB).ok());
  NeatPlanner planner(ConsolidationConfig{ConsolidationMode::kZombieStack, 0.20, 0.90, 0.30});
  const auto plan = planner.Plan(Hosts());
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].vm, 2u);
  EXPECT_EQ(plan.migrations[0].from, servers_[1]->id());
  ASSERT_EQ(plan.hosts_to_suspend.size(), 1u);
  EXPECT_EQ(plan.hosts_to_suspend[0], servers_[1]->id());
}

TEST_F(ConsolidationTest, VanillaNeatNeedsFullBooking) {
  // Target host has CPU room but not full memory for the VM.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 14 * kGiB, 5), 14 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 6 * kGiB, 1), 6 * kGiB).ok());
  ASSERT_TRUE(servers_[2]->HostVm(MakeVm(3, 14 * kGiB, 5), 14 * kGiB).ok());

  NeatPlanner vanilla(ConsolidationConfig{ConsolidationMode::kNeat, 0.20, 0.90, 0.30});
  const auto plan = vanilla.Plan(Hosts());
  EXPECT_TRUE(plan.hosts_to_suspend.empty());  // 6 GiB fits nowhere fully

  // ZombieStack only needs 30% of the WSS (3 GiB -> 0.9 GiB) locally.
  NeatPlanner zombie(ConsolidationConfig{ConsolidationMode::kZombieStack, 0.20, 0.90, 0.30});
  const auto zplan = zombie.Plan(Hosts());
  EXPECT_EQ(zplan.hosts_to_suspend.size(), 1u);
}

TEST_F(ConsolidationTest, OverloadedHostShedsSmallestVm) {
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 2 * kGiB, 6), 2 * kGiB).ok());
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(2, 1 * kGiB, 2), 1 * kGiB).ok());  // 8/8 cpus
  NeatPlanner planner(ConsolidationConfig{ConsolidationMode::kZombieStack, 0.20, 0.90, 0.30});
  const auto plan = planner.Plan(Hosts());
  ASSERT_FALSE(plan.migrations.empty());
  EXPECT_EQ(plan.migrations[0].vm, 2u);  // the small one moves
}

TEST_F(ConsolidationTest, WakesLruZombieWhenNothingFits) {
  // Overloaded source, and the only other awake host is full too.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 2 * kGiB, 8), 2 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 2 * kGiB, 8), 2 * kGiB).ok());
  ASSERT_TRUE(servers_[2]->machine().Suspend(acpi::SleepState::kSz).ok());
  NeatPlanner planner(ConsolidationConfig{ConsolidationMode::kZombieStack, 0.20, 0.90, 0.30});
  const auto plan = planner.Plan(Hosts(), /*lru_zombie=*/servers_[2]->id());
  ASSERT_EQ(plan.hosts_to_wake.size(), 1u);
  EXPECT_EQ(plan.hosts_to_wake[0], servers_[2]->id());
}

TEST_F(ConsolidationTest, EmptyPlanWhenBalanced) {
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 4 * kGiB, 4), 4 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 4 * kGiB, 4), 4 * kGiB).ok());
  NeatPlanner planner(ConsolidationConfig{ConsolidationMode::kZombieStack, 0.20, 0.90, 0.30});
  EXPECT_TRUE(planner.Plan(Hosts()).empty());
}

// ---------------------------------------------------------------------------
// Oasis.
// ---------------------------------------------------------------------------

TEST_F(PlacementTest, OasisPartiallyMigratesIdleVms) {
  // s1 underused with one idle VM; s2 has room for the WSS only.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 8 * kGiB, 1, /*wss=*/2 * kGiB), 8 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 13 * kGiB, 5), 13 * kGiB).ok());

  OasisPlanner planner;
  std::map<hv::VmId, double> util{{1, 0.0}, {2, 0.5}};
  const auto plan = planner.Plan(Hosts(), util);
  ASSERT_EQ(plan.partial_migrations.size(), 1u);
  EXPECT_EQ(plan.partial_migrations[0].wss_moved, 2 * kGiB);
  EXPECT_EQ(plan.partial_migrations[0].cold_parked, 6 * kGiB);
  EXPECT_EQ(plan.hosts_to_suspend.size(), 1u);
  EXPECT_EQ(plan.total_cold_parked, 6 * kGiB);
  EXPECT_EQ(plan.memory_servers_needed, 1u);
}

TEST_F(PlacementTest, OasisBusyVmsMoveInFull) {
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 4 * kGiB, 1), 4 * kGiB).ok());
  OasisPlanner planner;
  std::map<hv::VmId, double> util{{1, 0.5}};  // busy
  const auto plan = planner.Plan(Hosts(), util);
  ASSERT_EQ(plan.full_migrations.size(), 1u);
  EXPECT_TRUE(plan.partial_migrations.empty());
  EXPECT_EQ(plan.memory_servers_needed, 0u);
}

// ---------------------------------------------------------------------------
// Fig. 4 rack-energy estimator.
// ---------------------------------------------------------------------------

TEST(RackEnergy, Figure4OrderingHolds) {
  const auto demand = Figure4Demand();
  const double a = RackEnergy(Architecture::kServerCentric, demand);
  const double b = RackEnergy(Architecture::kIdealDisaggregated, demand);
  const double c = RackEnergy(Architecture::kMicroServers, demand);
  const double d = RackEnergy(Architecture::kZombie, demand);
  // Paper: a=2.1, c=1.8, d=1.2, b=1.15 (units of Emax).
  EXPECT_GT(a, c);
  EXPECT_GT(c, d);
  EXPECT_GE(d, b);
  EXPECT_NEAR(a, 2.1, 0.4);
  EXPECT_NEAR(c, 1.8, 0.4);
  EXPECT_NEAR(d, 1.2, 0.25);
  EXPECT_NEAR(b, 1.15, 0.25);
}

TEST(RackEnergy, ZeroDemandSuspendsEverything) {
  const std::vector<SlotDemand> idle(3, SlotDemand{0.0, 0.0});
  RackEnergyParams params;
  EXPECT_NEAR(RackEnergy(Architecture::kServerCentric, idle, params),
              3 * params.suspend_fraction, 1e-9);
  EXPECT_NEAR(RackEnergy(Architecture::kZombie, idle, params), 3 * params.suspend_fraction,
              1e-9);
}

TEST(RackEnergy, FullDemandCostsFullRack) {
  const std::vector<SlotDemand> full(3, SlotDemand{1.0, 1.0});
  EXPECT_NEAR(RackEnergy(Architecture::kServerCentric, full), 3.0, 1e-9);
  EXPECT_NEAR(RackEnergy(Architecture::kZombie, full), 3.0, 1e-9);
}

TEST(RackEnergy, ZombieBeatsServerCentricOnMemoryOnlyDemand) {
  // One busy server plus one memory-only server: the zombie design shines.
  const std::vector<SlotDemand> demand{{1.0, 1.0}, {0.0, 0.9}};
  EXPECT_LT(RackEnergy(Architecture::kZombie, demand),
            RackEnergy(Architecture::kServerCentric, demand) - 0.3);
}

}  // namespace
}  // namespace zombie::cloud
