// Unit and integration tests for the cloud layer: server bookkeeping, the
// wired rack (Fig. 7), placement (Section 5.1), the consolidation planner
// on rack servers (Section 5.2) and the Fig. 4 rack-energy estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/cloud/rack_energy.h"
#include "src/cloud/server.h"
#include "src/common/rng.h"
#include "src/scenario/testbed.h"
#include "src/sim/consolidation.h"

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

// Random HostVm / DropVm sequences, rejected calls included, keep the
// running totals equal to a sum over the hosted VMs.
TEST(Server, RunningTotalsMatchHostedVms) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Server s(1, "s1", acpi::MachineProfile::HpCompaqElite8300(), {8, 16 * kGiB});
    std::vector<hv::VmId> hosted;
    hv::VmId next_id = 1;
    for (int step = 0; step < 400; ++step) {
      const auto op = rng.NextBelow(6);
      if (op == 0 && !hosted.empty()) {
        const hv::VmId dup = hosted[rng.NextBelow(hosted.size())];
        EXPECT_EQ(s.HostVm(MakeVm(dup, 1 * kGiB, 1), 0).code(), ErrorCode::kConflict);
      } else if (op == 1) {
        EXPECT_EQ(s.HostVm(MakeVm(next_id++, 1 * kGiB, 9), 0).code(),
                  ErrorCode::kOutOfMemory);  // more vCPUs than the host has
      } else if (op == 2) {
        EXPECT_EQ(s.HostVm(MakeVm(next_id++, 1 * kGiB, 1), 2 * kGiB).code(),
                  ErrorCode::kInvalidArgument);  // local share > reservation
      } else if (op == 3 && !hosted.empty()) {
        const std::size_t i = rng.NextBelow(hosted.size());
        ASSERT_TRUE(s.DropVm(hosted[i]).ok());
        EXPECT_EQ(s.DropVm(hosted[i]).code(), ErrorCode::kNotFound);
        hosted.erase(hosted.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        // May also be refused for lack of vCPUs or local memory.
        const Bytes reserved = (1 + rng.NextBelow(6)) * kGiB;
        const Bytes local = rng.NextBelow(reserved / kGiB + 1) * kGiB;
        const auto vcpus = static_cast<std::uint32_t>(1 + rng.NextBelow(3));
        if (s.HostVm(MakeVm(next_id, reserved, vcpus), local).ok()) {
          hosted.push_back(next_id);
        }
        ++next_id;
      }
      std::uint32_t cpus = 0;
      Bytes local = 0;
      for (const auto& [id, vm] : s.vms()) {
        cpus += vm.vcpus;
        local += s.LocalBytesOf(id);
      }
      ASSERT_EQ(s.vms().size(), hosted.size());
      ASSERT_EQ(s.UsedCpus(), cpus);
      ASSERT_EQ(s.UsedLocalMemory(), local);
      ASSERT_EQ(s.FreeLocalMemory(), 16 * kGiB - local);
    }
  }
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

TEST_F(RackTest, FindServerResolvesEveryAddedId) {
  EXPECT_EQ(rack_.FindServer(0), nullptr);
  EXPECT_EQ(rack_.FindServer(static_cast<remotemem::ServerId>(rack_.servers().size() + 1)),
            nullptr);
  EXPECT_EQ(rack_.FindServer(UINT32_MAX), nullptr);
  for (const auto& server : rack_.servers()) {
    EXPECT_EQ(rack_.FindServer(server->id()), server.get());
  }
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
  rack_.plane().FailShardPrimary(0);
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
  ASSERT_TRUE(rack_.servers()[1]->machine().Suspend(acpi::SleepState::kS3).ok());
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

// Vanilla Neat: a moved VM needs its full booking locally.
Bytes FullBooking(const hv::VmSpec& vm) { return vm.reserved_memory; }

class ConsolidationTest : public PlacementTest {
 protected:
  sim::ConsolidationPlan Plan(
      Bytes (*needed_if_moved)(const hv::VmSpec&) = scenario::ZombieStackLocalShare) {
    return sim::PlanConsolidation(scenario::RackHostViews(Hosts(), needed_if_moved));
  }
};

TEST_F(ConsolidationTest, DrainsUnderloadedHost) {
  // s1 nearly full, s2 almost idle: s2 should drain into s1.  s3 is empty
  // from the start, so it is suspended too.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 4 * kGiB, 5), 4 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 2 * kGiB, 1), 2 * kGiB).ok());
  const auto plan = Plan();
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].vm, 2u);
  EXPECT_EQ(plan.moves[0].from, 1u);
  EXPECT_EQ(plan.moves[0].to, 0u);
  EXPECT_EQ(plan.suspend, (std::vector<std::size_t>{1, 2}));
}

TEST_F(ConsolidationTest, VanillaNeatNeedsFullBooking) {
  // Target host has CPU room but not full memory for the VM.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 14 * kGiB, 5), 14 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 6 * kGiB, 1), 6 * kGiB).ok());
  ASSERT_TRUE(servers_[2]->HostVm(MakeVm(3, 14 * kGiB, 5), 14 * kGiB).ok());

  EXPECT_TRUE(Plan(FullBooking).suspend.empty());  // 6 GiB fits nowhere fully

  // ZombieStack only needs 30% of the WSS (3 GiB -> 0.9 GiB) locally.
  EXPECT_EQ(Plan().suspend.size(), 1u);
}

TEST_F(ConsolidationTest, EmptyPlanWhenBalanced) {
  // No host is underloaded, so nothing moves; only the empty s3 suspends.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 4 * kGiB, 4), 4 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 4 * kGiB, 4), 4 * kGiB).ok());
  const auto plan = Plan();
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.suspend, (std::vector<std::size_t>{2}));
}

TEST_F(ConsolidationTest, NoSuspendedHostKeepsAMovedVm) {
  // s1's VM fits only on s2 and s2's VM fits on s3.  Planning against a
  // frozen snapshot moved vm1 onto s2 and then suspended s2 with vm1 on it.
  // Each drain now updates the view, so s2's drain carries vm1 on.
  ASSERT_TRUE(servers_[0]->HostVm(MakeVm(1, 12 * kGiB, 1, 6 * kGiB), 12 * kGiB).ok());
  ASSERT_TRUE(servers_[1]->HostVm(MakeVm(2, 2 * kGiB, 1), 2 * kGiB).ok());
  ASSERT_TRUE(servers_[2]->HostVm(MakeVm(3, 15 * kGiB, 4), 15 * kGiB).ok());
  const auto plan = Plan();
  ASSERT_FALSE(plan.suspend.empty());
  std::map<std::uint64_t, std::size_t> final_host;
  for (const auto& move : plan.moves) {
    final_host[move.vm] = move.to;
  }
  for (const auto& [vm, host] : final_host) {
    EXPECT_EQ(std::count(plan.suspend.begin(), plan.suspend.end(), host), 0)
        << "vm" << vm << " ends on suspended host " << host;
  }

  // The same load on a rack: every move and every suspend succeeds.
  Rack rack(SmallRack());
  std::vector<Server*> hosts;
  for (const auto& s : servers_) {
    hosts.push_back(&rack.AddServer(s->hostname(), acpi::MachineProfile::HpCompaqElite8300(),
                                    s->capacity()));
    for (const auto& [id, vm] : s->vms()) {
      ASSERT_TRUE(hosts.back()->HostVm(vm, s->LocalBytesOf(id)).ok());
    }
  }
  const auto rack_plan =
      sim::PlanConsolidation(scenario::RackHostViews(hosts, scenario::ZombieStackLocalShare));
  ASSERT_EQ(rack_plan.moves.size(), plan.moves.size());
  for (const auto& move : rack_plan.moves) {
    const hv::VmSpec vm = hosts[move.from]->vms().at(move.vm);
    ASSERT_TRUE(hosts[move.from]->DropVm(move.vm).ok());
    ASSERT_TRUE(hosts[move.to]->HostVm(vm, scenario::ZombieStackLocalShare(vm)).ok());
  }
  for (std::size_t host : rack_plan.suspend) {
    EXPECT_TRUE(rack.PushToZombie(hosts[host]->id()).ok()) << hosts[host]->hostname();
  }
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
