// Failure-injection tests: controller crashes mid-operation, reclaim racing
// paging traffic, double failover, zombie death below the fault-tolerance
// mirror, legacy (non-Sz) boards mixed into the rack, and fabric partitions.
#include <gtest/gtest.h>

#include <vector>

#include "src/cloud/faults.h"
#include "src/cloud/rack.h"
#include "src/hv/backend.h"
#include "src/remotemem/memory_manager.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie {
namespace {

using cloud::Rack;
using cloud::RackConfig;
using cloud::Server;

RackConfig TestRack() {
  RackConfig config;
  config.buff_size = 4 * kMiB;
  config.materialize_memory = false;
  return config;
}

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : rack_(TestRack()) {
    auto profile = acpi::MachineProfile::HpCompaqElite8300();
    user_ = &rack_.AddServer("user", profile, {8, 16 * kGiB});
    zombie_ = &rack_.AddServer("zombie", profile, {8, 16 * kGiB});
    spare_ = &rack_.AddServer("spare", profile, {8, 16 * kGiB});
  }

  Rack rack_;
  Server* user_ = nullptr;
  Server* zombie_ = nullptr;
  Server* spare_ = nullptr;
};

// ---------------------------------------------------------------------------
// Controller failure and failover.
// ---------------------------------------------------------------------------

TEST_F(FailureTest, FailoverPreservesInFlightAllocations) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  auto extent = rack_.manager(user_->id()).AllocExtension(16 * kMiB);
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE(extent.value()->WritePage(3, {}).ok());

  rack_.plane().FailShardPrimary(0);
  for (int i = 0; i < 3; ++i) {
    rack_.PumpHeartbeat();
  }

  // Data path is unaffected by the control-plane failover: one-sided reads
  // keep flowing against the zombie.
  EXPECT_TRUE(extent.value()->ReadPage(3, {}).ok());
  // The promoted controller still tracks the allocation as ours: releasing
  // a buffer we hold succeeds, releasing a foreign one fails.
  auto ids = extent.value()->buffer_ids();
  EXPECT_TRUE(rack_.plane().GsRelease(user_->id(), {ids[0]}).ok());
  EXPECT_FALSE(rack_.plane().GsRelease(spare_->id(), {ids[1]}).ok());
}

TEST_F(FailureTest, HeartbeatFlappingDoesNotFailOver) {
  const auto* controller_before = &rack_.plane().primary(0);
  // Miss two beats (below the threshold of 3), then recover, repeatedly.
  for (int round = 0; round < 4; ++round) {
    rack_.plane().FailShardPrimary(0);  // silences heartbeats
    rack_.PumpHeartbeat();
    rack_.PumpHeartbeat();
    // Primary recovers before the third miss; the next pump delivers a
    // fresh beat and resets the miss counter.
    rack_.plane().ReviveShardPrimary(0);
    rack_.PumpHeartbeat();
  }
  EXPECT_EQ(&rack_.plane().primary(0), controller_before);
  EXPECT_FALSE(rack_.plane().secondary(0).failed_over());
}

TEST_F(FailureTest, WakeWithHomeShardDownLeavesZombieAsleep) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  const Bytes lent = zombie_->lent_memory();
  ASSERT_GT(lent, 0u);

  // The zombie's home shard is down: GS_reclaim is refused, so the wake must
  // not happen either — the host stays a lending zombie in Sz.
  rack_.plane().FailShardPrimary(0);
  auto failed = rack_.WakeServer(zombie_->id());
  EXPECT_EQ(failed.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(zombie_->machine().state(), acpi::SleepState::kSz);
  EXPECT_EQ(zombie_->role(), cloud::Role::kZombie);
  EXPECT_EQ(zombie_->lent_memory(), lent);
  EXPECT_TRUE(rack_.plane().IsZombie(zombie_->id()));

  // Once the shard is back, the retry pays the full Sz exit latency.
  rack_.plane().ReviveShardPrimary(0);
  auto retried = rack_.WakeServer(zombie_->id());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value(), zombie_->machine().firmware().latencies().sz_exit);
  EXPECT_EQ(zombie_->machine().state(), acpi::SleepState::kS0);
  EXPECT_EQ(zombie_->role(), cloud::Role::kActive);
  EXPECT_EQ(zombie_->lent_memory(), 0u);
}

// ---------------------------------------------------------------------------
// Zombie death / reclaim racing the data path.
// ---------------------------------------------------------------------------

TEST_F(FailureTest, ReclaimMidWorkloadFallsBackToMirror) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  auto extent = rack_.manager(user_->id()).AllocExtension(8 * kMiB);
  ASSERT_TRUE(extent.ok());
  hv::RemoteBackend backend(extent.value());

  // Run half a workload, reclaim the zombie mid-flight, run the rest.
  // Uniform accesses over the footprint guarantee steady paging traffic.
  workloads::AppProfile app;
  app.reserved_memory = 8 * kMiB;
  app.working_set = 7 * kMiB;
  app.pattern.tiers = {};  // pure uniform
  app.pattern.write_ratio = 0.4;
  app.accesses = 40'000;
  workloads::WorkloadRunner runner;
  const auto first_half = runner.RunRamExt(app, 0.5, &backend);
  EXPECT_GT(first_half.pager.major_faults, 0u);

  ASSERT_TRUE(rack_.WakeServer(zombie_->id()).ok());  // reclaims everything

  const auto second_half = runner.RunRamExt(app, 0.5, &backend);
  // Still completes — but slower, since reloads now hit the local mirror.
  EXPECT_GT(second_half.sim_time, first_half.sim_time);
  EXPECT_GT(extent.value()->mirror_reads(), 0u);
}

TEST_F(FailureTest, UnwrittenPagesAreLostAfterReclaim) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  auto extent = rack_.manager(user_->id()).AllocExtension(8 * kMiB);
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE(extent.value()->WritePage(0, {}).ok());
  ASSERT_TRUE(rack_.WakeServer(zombie_->id()).ok());
  EXPECT_TRUE(extent.value()->ReadPage(0, {}).ok());              // mirrored
  EXPECT_EQ(extent.value()->ReadPage(1, {}).code(), ErrorCode::kNotFound);  // never written
}

TEST_F(FailureTest, SuddenZombiePowerLossBlocksDataPath) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  auto extent = rack_.manager(user_->id()).AllocExtension(8 * kMiB);
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE(extent.value()->WritePage(5, {}).ok());

  // Crash: the host drops to S5 without any reclaim protocol.
  zombie_->machine().ospm().Wake();
  ASSERT_TRUE(zombie_->machine().Suspend(acpi::SleepState::kS5).ok());

  // One-sided ops now fail (memory rail down)...
  auto read = extent.value()->ReadPage(5, {});
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.code(), ErrorCode::kUnavailable);
  // ...until the user marks the buffers dead, after which the mirror serves.
  extent.value()->OnBuffersReclaimed(extent.value()->buffer_ids());
  auto mirrored = extent.value()->ReadPage(5, {});
  ASSERT_TRUE(mirrored.ok());
  EXPECT_GE(mirrored.value(), 25 * kMicrosecond);
}

TEST_F(FailureTest, WakeRefusesAHostThatLostPower) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  const Bytes lent = zombie_->lent_memory();
  ASSERT_GT(lent, 0u);
  const cloud::Role role = zombie_->role();
  const Bytes pool = rack_.plane().FreeRemoteBytes();

  // Power loss: the box falls to S5, where nothing listens for Wake-on-LAN.
  zombie_->machine().ospm().Wake();
  ASSERT_TRUE(zombie_->machine().Suspend(acpi::SleepState::kS5).ok());

  // The wake is refused before anything is reclaimed: the host still lends
  // its memory and keeps its role, as it cannot come back to serve.
  auto woke = rack_.WakeServer(zombie_->id());
  EXPECT_FALSE(woke.ok());
  EXPECT_EQ(woke.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(zombie_->machine().state(), acpi::SleepState::kS5);
  EXPECT_EQ(zombie_->role(), role);
  EXPECT_EQ(zombie_->lent_memory(), lent);
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), pool);
}

// ---------------------------------------------------------------------------
// Legacy hardware in the rack.
// ---------------------------------------------------------------------------

TEST(FailureLegacy, NonSzBoardRefusesZombieButWorksOtherwise) {
  Rack rack(TestRack());
  auto profile = acpi::MachineProfile::HpCompaqElite8300();
  rack.AddServer("user", profile, {8, 16 * kGiB});
  Server& legacy = rack.AddServer("legacy", profile, {8, 16 * kGiB},
                                  /*sz_capable=*/false);
  Server& modern = rack.AddServer("modern", profile, {8, 16 * kGiB});

  EXPECT_EQ(rack.PushToZombie(legacy.id()).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(legacy.machine().state(), acpi::SleepState::kS0);
  // The legacy box can still S3 (no lending) and the modern one zombifies.
  EXPECT_TRUE(legacy.machine().Suspend(acpi::SleepState::kS3).ok());
  EXPECT_TRUE(rack.PushToZombie(modern.id()).ok());
  EXPECT_GT(rack.plane().FreeRemoteBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Allocation failures leave no leaks.
// ---------------------------------------------------------------------------

TEST_F(FailureTest, FailedGuaranteedAllocationRollsBack) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  const Bytes pool = rack_.plane().FreeRemoteBytes();
  // Ask for more than the rack holds (escalation finds no slack: the spare
  // keeps its 25% floor, the user too).
  auto extent = rack_.manager(user_->id()).AllocExtension(64 * kGiB);
  EXPECT_FALSE(extent.ok());
  EXPECT_EQ(extent.code(), ErrorCode::kOutOfMemory);
  // Everything the failed allocation touched was released.
  EXPECT_GE(rack_.plane().FreeRemoteBytes(), pool);
  // And a sane allocation still succeeds afterwards.
  EXPECT_TRUE(rack_.manager(user_->id()).AllocExtension(8 * kMiB).ok());
}

TEST_F(FailureTest, DelegationFailureLeavesNoRegions) {
  // A server whose memory is not accessible cannot register regions.
  ASSERT_TRUE(spare_->machine().Suspend(acpi::SleepState::kS3).ok());
  auto& mgr = rack_.manager(spare_->id());
  auto delegated = mgr.DelegateActive(16 * kMiB);
  EXPECT_FALSE(delegated.ok());
  EXPECT_TRUE(mgr.delegated().empty());
  EXPECT_EQ(rack_.plane().FreeRemoteBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Lease protocol end-to-end: silent host death, fabric partitions and the
// FaultInjector, all driven through Rack::Tick's simulated time.
// ---------------------------------------------------------------------------

TEST_F(FailureTest, SilentHostDeathExpiresLeaseAndLeavesNoOrphans) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  auto extent = rack_.manager(user_->id()).AllocExtension(8 * kMiB);
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE(extent.value()->WritePage(3, {}).ok());

  // The host drops off the fabric without a word: the control plane can only
  // learn through the missed-heartbeat deadline (ttl = 3 ticks).
  ASSERT_TRUE(rack_.KillHost(zombie_->id()).ok());
  std::vector<remotemem::ExpiryRecord> expired;
  for (int i = 0; i < 6 && expired.empty(); ++i) {
    expired = rack_.Tick();
  }
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].host, zombie_->id());
  EXPECT_FALSE(expired[0].hosted_dropped.empty());

  // Cleanup was complete: no orphaned buffers, invariants hold, and the
  // US_reclaim notice flipped the extent to its local mirror.
  EXPECT_TRUE(rack_.plane().OrphanedBuffers(rack_.now()).empty());
  EXPECT_TRUE(rack_.plane().CheckInvariants().ok());
  EXPECT_TRUE(extent.value()->ReadPage(3, {}).ok());
  EXPECT_GT(extent.value()->mirror_reads(), 0u);
  // The dead host's lease is gone for good until it re-registers.
  EXPECT_FALSE(rack_.plane().leases().IsLive(zombie_->id(), rack_.now()));
}

TEST_F(FailureTest, PartitionHealReadmitsHostsWithBumpedEpoch) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  const std::uint64_t epoch_before = rack_.plane().leases().epoch(user_->id());
  ASSERT_GT(epoch_before, 0u);

  // Cut every server off from the (single) controller shard: renewals fail,
  // all leases lapse at the deadline even though the hosts are healthy.
  rack_.SetShardPartition(0, /*broken=*/true);
  std::vector<remotemem::ExpiryRecord> expired;
  for (int i = 0; i < 6 && expired.empty(); ++i) {
    expired = rack_.Tick();
  }
  ASSERT_EQ(expired.size(), 3u);  // user, zombie, spare — ascending by id
  EXPECT_EQ(expired[0].host, user_->id());
  EXPECT_FALSE(rack_.plane().leases().IsLive(user_->id(), rack_.now()));

  // Heal: the next renewal round re-admits every live host under a fresh
  // lease epoch (a new incarnation, so stale grants can be fenced).
  rack_.SetShardPartition(0, /*broken=*/false);
  rack_.Tick();
  EXPECT_TRUE(rack_.plane().leases().IsLive(user_->id(), rack_.now()));
  EXPECT_GT(rack_.plane().leases().epoch(user_->id()), epoch_before);
  EXPECT_TRUE(rack_.plane().OrphanedBuffers(rack_.now()).empty());
  EXPECT_TRUE(rack_.plane().CheckInvariants().ok());
}

// Lease renewal's fabric accounting across one Tick: an S0 host's renewal is
// one 4-byte request plus an 8-byte reply, noted as a single 12-byte
// transfer; a zombie's controller-side probe is priced but not counted; a
// partitioned S0 host adds nothing and its lease lapses past the TTL.
struct RenewalDelta {
  std::uint64_t ops = 0;
  Bytes bytes = 0;
};

RenewalDelta TickDelta(Rack& rack) {
  const std::uint64_t ops = rack.fabric().total_operations();
  const Bytes bytes = rack.fabric().total_bytes();
  (void)rack.Tick();
  return {rack.fabric().total_operations() - ops, rack.fabric().total_bytes() - bytes};
}

TEST(LeaseRenewal, HealthyActiveHostAddsOneTwelveByteTransfer) {
  Rack rack(TestRack());
  Server& host = rack.AddServer("host", acpi::MachineProfile::HpCompaqElite8300(),
                                {8, 16 * kGiB});
  const RenewalDelta delta = TickDelta(rack);
  EXPECT_EQ(delta.ops, 1u);
  EXPECT_EQ(delta.bytes, 12u);
  // The renewal pushed the deadline one tick out: the lease is live at the
  // TTL measured from this tick.
  EXPECT_TRUE(rack.plane().leases().IsLive(host.id(), rack.now() + TestRack().lease_ttl));
}

TEST(LeaseRenewal, ZombieProbeAddsNoTransfer) {
  Rack rack(TestRack());
  Server& zombie = rack.AddServer("zombie", acpi::MachineProfile::HpCompaqElite8300(),
                                  {8, 16 * kGiB});
  ASSERT_TRUE(rack.PushToZombie(zombie.id()).ok());
  for (int i = 0; i < 6; ++i) {
    const RenewalDelta delta = TickDelta(rack);
    EXPECT_EQ(delta.ops, 0u);
    EXPECT_EQ(delta.bytes, 0u);
    EXPECT_TRUE(rack.plane().leases().IsLive(zombie.id(), rack.now()));
  }
}

TEST(LeaseRenewal, PartitionedActiveHostAddsNothingAndLapsesAtTtl) {
  const RackConfig config = TestRack();
  Rack rack(config);
  Server& host = rack.AddServer("host", acpi::MachineProfile::HpCompaqElite8300(),
                                {8, 16 * kGiB});
  rack.SetShardPartition(0, /*broken=*/true);
  const int ticks_to_ttl = static_cast<int>(config.lease_ttl / config.tick_period);
  for (int i = 0; i < ticks_to_ttl; ++i) {
    const RenewalDelta delta = TickDelta(rack);
    EXPECT_EQ(delta.ops, 0u);
    EXPECT_EQ(delta.bytes, 0u);
    EXPECT_TRUE(rack.plane().leases().IsLive(host.id(), rack.now()));  // deadline inclusive
  }
  const RenewalDelta delta = TickDelta(rack);
  EXPECT_EQ(delta.ops, 0u);
  EXPECT_EQ(delta.bytes, 0u);
  EXPECT_FALSE(rack.plane().leases().IsLive(host.id(), rack.now()));
}

TEST_F(FailureTest, HeartbeatDropShorterThanTtlIsAbsorbed) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  // Flaky NIC: the user misses one renewal window (< ttl), nothing expires.
  rack_.DropHeartbeatsUntil(user_->id(), rack_.now() + 150 * kMillisecond);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(rack_.Tick().empty());
  }
  EXPECT_TRUE(rack_.plane().leases().IsLive(user_->id(), rack_.now()));
}

TEST_F(FailureTest, FaultInjectorFiresPlanInSimTimeOrder) {
  ASSERT_TRUE(rack_.PushToZombie(zombie_->id()).ok());
  const Duration tick = TestRack().tick_period;

  cloud::FaultPlan plan;
  plan.events = {
      {.at = 2 * tick, .kind = cloud::FaultKind::kControllerCrash, .shard = 0},
      {.at = 5 * tick,
       .kind = cloud::FaultKind::kPartition,
       .shard = 0,
       .duration = 2 * tick},
      {.at = 12 * tick, .kind = cloud::FaultKind::kHostCrash, .host = zombie_->id()},
  };
  cloud::FaultInjector injector(&rack_, plan);
  EXPECT_EQ(injector.fired(), 0u);

  std::size_t expiries = 0;
  for (int i = 0; i < 20; ++i) {
    injector.AdvanceTo(rack_.now() + tick);
    expiries += rack_.Tick().size();
  }
  EXPECT_EQ(injector.fired(), plan.events.size());
  EXPECT_TRUE(injector.done());  // includes: the partition healed itself

  // The controller crash was absorbed by failover, the short partition
  // healed below the ttl, and only the host crash cost a lease.
  EXPECT_TRUE(rack_.plane().secondary(0).failed_over());
  EXPECT_EQ(expiries, 1u);
  EXPECT_FALSE(rack_.plane().leases().IsLive(zombie_->id(), rack_.now()));
  EXPECT_TRUE(rack_.plane().leases().IsLive(user_->id(), rack_.now()));
  EXPECT_TRUE(rack_.plane().OrphanedBuffers(rack_.now()).empty());
  EXPECT_TRUE(rack_.plane().CheckInvariants().ok());
}

}  // namespace
}  // namespace zombie
