// Unit tests for the rack-level remote-memory protocol: buffer DB, the GS_*
// calls on a 1-shard control plane, secondary controller mirroring/failover,
// and the remote-memory manager / extent.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/global_controller.h"
#include "src/remotemem/memory_manager.h"
#include "src/remotemem/secondary_controller.h"
#include "src/remotemem/sharded_plane.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {
namespace {

constexpr Bytes kTestBuff = 1 * kMiB;

BufferRecord MakeRecord(BufferId id, ServerId host, BufferType type,
                        ServerId user = kNilServer) {
  BufferRecord rec;
  rec.id = id;
  rec.size = kTestBuff;
  rec.type = type;
  rec.host = host;
  rec.user = user;
  rec.rkey = id * 100;
  return rec;
}

// ---------------------------------------------------------------------------
// BufferDb.
// ---------------------------------------------------------------------------

TEST(BufferDb, InsertFindErase) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  EXPECT_EQ(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).code(), ErrorCode::kConflict);
  EXPECT_FALSE(db.Insert(MakeRecord(kInvalidBuffer, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Find(1).has_value());
  EXPECT_EQ(db.Find(1)->host, 10u);
  EXPECT_TRUE(db.Erase(1).ok());
  EXPECT_FALSE(db.Find(1).has_value());
  EXPECT_EQ(db.Erase(1).code(), ErrorCode::kNotFound);
}

TEST(BufferDb, AssignRelease) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  EXPECT_TRUE(db.Assign(1, 20).ok());
  EXPECT_EQ(db.Assign(1, 21).code(), ErrorCode::kConflict);  // double alloc
  EXPECT_EQ(db.Find(1)->user, 20u);
  EXPECT_TRUE(db.Release(1).ok());
  EXPECT_EQ(db.Find(1)->user, kNilServer);
}

TEST(BufferDb, FreeBuffersFiltersByType) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(3, 10, BufferType::kZombie, /*user=*/20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(5, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(4, 12, BufferType::kZombie)).ok());
  // Per type: hosts ascending, each host's free ids ascending; used
  // buffers and hosts with nothing free have no entry.
  EXPECT_EQ(db.FreeByHost(BufferType::kZombie),
            (BufferDb::FreeIndex{{10, {1, 5}}, {12, {4}}}));
  EXPECT_EQ(db.FreeByHost(BufferType::kActive), (BufferDb::FreeIndex{{11, {2}}}));
  ASSERT_TRUE(db.Erase(4).ok());
  ASSERT_TRUE(db.Erase(5).ok());
  EXPECT_EQ(db.FreeByHost(BufferType::kZombie), (BufferDb::FreeIndex{{10, {1}}}));
  EXPECT_EQ(db.free_count(), 2u);
  EXPECT_EQ(db.FreeBytes(), 2 * kTestBuff);
  EXPECT_EQ(db.TotalBytes(), 3 * kTestBuff);
}

TEST(BufferDb, ReclaimOrderFreeFirst) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie, /*user=*/20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(3, 10, BufferType::kZombie, /*user=*/21)).ok());
  const auto order = db.ReclaimOrderForHost(10);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].id, 2u);  // the free one first
  EXPECT_EQ(order[1].id, 1u);
  EXPECT_EQ(order[2].id, 3u);
}

TEST(BufferDb, RetypeHostFlipsType) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kActive)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  db.RetypeHost(10, BufferType::kZombie);
  EXPECT_EQ(db.Find(1)->type, BufferType::kZombie);
  EXPECT_EQ(db.Find(2)->type, BufferType::kActive);  // other host untouched
  // The host's free ids move to the zombie free index.
  EXPECT_EQ(db.FreeByHost(BufferType::kZombie), (BufferDb::FreeIndex{{10, {1}}}));
  EXPECT_EQ(db.FreeByHost(BufferType::kActive), (BufferDb::FreeIndex{{11, {2}}}));
}

TEST(BufferDb, SnapshotLoadRoundTrip) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie, 20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  BufferDb copy;
  copy.Load(db.Snapshot());
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.Find(1)->user, 20u);
  EXPECT_EQ(copy.Find(2)->type, BufferType::kActive);
}

// ---------------------------------------------------------------------------
// GS_* calls on a 1-shard control plane.
// ---------------------------------------------------------------------------

std::vector<BufferGrant> MakeGrants(std::size_t n, ServerId host, Bytes size = kTestBuff) {
  std::vector<BufferGrant> grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back({kInvalidBuffer, /*rkey=*/1000 + i, size, host, BufferType::kZombie});
  }
  return grants;
}

PlaneConfig OneShard() {
  return PlaneConfig{.buff_size = kTestBuff, .shards = 1, .lease = {}};
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : plane_(OneShard()) {
    for (ServerId s : {kHostA, kHostB, kUserC, kUserD}) {
      plane_.RegisterServer(s);
    }
  }

  static constexpr ServerId kHostA = 1;
  static constexpr ServerId kHostB = 2;
  static constexpr ServerId kUserC = 3;
  static constexpr ServerId kUserD = 4;
  ShardedControlPlane plane_;
};

TEST_F(ControllerTest, GotoZombieRegistersBuffers) {
  auto ids = plane_.GsGotoZombie(kHostA, MakeGrants(4, kHostA));
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 4u);
  EXPECT_TRUE(plane_.IsZombie(kHostA));
  EXPECT_EQ(plane_.ZombieList(), std::vector<ServerId>{kHostA});
  EXPECT_EQ(plane_.FreeRemoteBytes(), 4 * kTestBuff);
}

TEST_F(ControllerTest, RejectsNonUniformBuffSize) {
  auto grants = MakeGrants(1, kHostA, kTestBuff * 2);
  EXPECT_FALSE(plane_.GsGotoZombie(kHostA, grants).ok());
}

TEST_F(ControllerTest, RejectsUnregisteredHost) {
  EXPECT_EQ(plane_.GsGotoZombie(99, MakeGrants(1, 99)).code(), ErrorCode::kNotFound);
}

TEST_F(ControllerTest, AllocExtTakesZombieFirst) {
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  ASSERT_TRUE(plane_.DelegateActiveBuffers(kHostB, MakeGrants(2, kHostB)).ok());
  auto grants = plane_.GsAllocExt(kUserC, 3 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 3u);
  // Zombie buffers (host A) have strict priority; active fills the rest.
  EXPECT_EQ(grants.value()[0].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[1].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[2].type, BufferType::kActive);
}

TEST_F(ControllerTest, AllocExtRoundsUpAndFailsWhenShort) {
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  // 1.5 buffs worth must round up to 2 buffers.
  auto grants = plane_.GsAllocExt(kUserC, kTestBuff + kTestBuff / 2);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);
  // Nothing left: a guaranteed allocation must fail (and roll back cleanly).
  auto fail = plane_.GsAllocExt(kUserD, kTestBuff);
  EXPECT_EQ(fail.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(plane_.FreeRemoteBytes(), 0u);
}

TEST_F(ControllerTest, ReleaseReturnsToPool) {
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  auto grants = plane_.GsAllocExt(kUserC, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(plane_.FreeRemoteBytes(), 0u);
  ASSERT_TRUE(plane_.GsRelease(kUserC, {grants.value()[0].id}).ok());
  EXPECT_EQ(plane_.FreeRemoteBytes(), kTestBuff);
}

TEST_F(ControllerTest, ReleaseByWrongUserRejected) {
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  auto grants = plane_.GsAllocExt(kUserC, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_FALSE(plane_.GsRelease(kUserD, {grants.value()[0].id}).ok());
}

// Records US_reclaim notifications.
class RecordingAgents : public AgentDirectory {
 public:
  Status ReclaimFromUser(ServerId user, const std::vector<BufferId>& buffers) override {
    reclaims[user].insert(reclaims[user].end(), buffers.begin(), buffers.end());
    return Status::Ok();
  }
  Bytes RequestActiveDelegation(ServerId, Bytes) override { return 0; }

  std::map<ServerId, std::vector<BufferId>> reclaims;
};

TEST_F(ControllerTest, ReclaimPrefersFreeThenNotifiesUsers) {
  RecordingAgents agents;
  plane_.set_agents(&agents);
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(3, kHostA)).ok());
  auto grants = plane_.GsAllocExt(kUserC, kTestBuff);  // takes buffer #1
  ASSERT_TRUE(grants.ok());

  // Reclaim 2: the free pair goes first, no user notification needed.
  auto reclaimed = plane_.GsReclaim(kHostA, 2);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_TRUE(agents.reclaims.empty());
  EXPECT_FALSE(plane_.IsZombie(kHostA));  // reclaiming host is waking

  // Reclaim the last (allocated) one: the user must be told.
  auto last = plane_.GsReclaim(kHostA, 1);
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(agents.reclaims[kUserC].size(), 1u);
  EXPECT_EQ(agents.reclaims[kUserC][0], grants.value()[0].id);
  EXPECT_EQ(plane_.FreeRemoteBytes(), 0u);
}

TEST_F(ControllerTest, ReclaimMoreThanDelegatedRejected) {
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  EXPECT_FALSE(plane_.GsReclaim(kHostA, 2).ok());
}

TEST_F(ControllerTest, AllocationsSpreadAcrossHosts) {
  // "the memSize allocation is backed by memory from multiple remote
  // servers" — round-robin across zombie hosts.
  ASSERT_TRUE(plane_.GsGotoZombie(kHostA, MakeGrants(3, kHostA)).ok());
  ASSERT_TRUE(plane_.GsGotoZombie(kHostB, MakeGrants(3, kHostB)).ok());
  auto grants = plane_.GsAllocExt(kUserC, 4 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  std::size_t from_a = 0;
  for (const auto& g : grants.value()) {
    from_a += g.host == kHostA ? 1 : 0;
  }
  EXPECT_EQ(from_a, 2u);  // exactly half from each host
}

TEST_F(ControllerTest, ActiveEscalationViaAgents) {
  // An AgentDirectory that delegates active buffers when asked.
  class LendingAgents : public AgentDirectory {
   public:
    explicit LendingAgents(ShardedControlPlane* p) : plane(p) {}
    Status ReclaimFromUser(ServerId, const std::vector<BufferId>&) override {
      return Status::Ok();
    }
    Bytes RequestActiveDelegation(ServerId host, Bytes wanted) override {
      const std::size_t n = static_cast<std::size_t>(wanted / kTestBuff);
      (void)plane->DelegateActiveBuffers(host, MakeGrants(n, host));
      return n * kTestBuff;
    }
    ShardedControlPlane* plane;
  };
  LendingAgents agents(&plane_);
  plane_.set_agents(&agents);

  // Pool empty; GsAllocExt escalates to active servers and succeeds.
  auto grants = plane_.GsAllocExt(kUserC, 2 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);
  EXPECT_EQ(grants.value()[0].type, BufferType::kActive);
}

// ---------------------------------------------------------------------------
// SecondaryController: mirroring and failover.
// ---------------------------------------------------------------------------

TEST(Secondary, MirrorsAllOperations) {
  ShardedControlPlane plane(OneShard());
  const SecondaryController& secondary = plane.secondary(0);
  plane.RegisterServer(1);
  plane.RegisterServer(2);

  ASSERT_TRUE(plane.GsGotoZombie(1, MakeGrants(2, 1)).ok());
  auto grants = plane.GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_GT(secondary.mirrored_ops(), 0u);
  EXPECT_EQ(secondary.replica().size(), 2u);
  EXPECT_EQ(secondary.replica().Find(grants.value()[0].id)->user, 2u);
  EXPECT_TRUE(secondary.IsZombieReplica(1));
}

TEST(Secondary, HeartbeatMissesTriggerFailover) {
  static_assert(kMissedBeatsForFailover == 3, "Section 4: failover on the third missed beat");
  SecondaryController secondary;
  secondary.ObserveHeartbeat(1);
  EXPECT_FALSE(secondary.MonitorTick());  // saw beat 1
  EXPECT_EQ(secondary.consecutive_misses(), 0);
  // Three silent ticks in a row -> failover.
  EXPECT_FALSE(secondary.MonitorTick());
  EXPECT_FALSE(secondary.MonitorTick());
  EXPECT_TRUE(secondary.MonitorTick());
  EXPECT_TRUE(secondary.failed_over());
}

TEST(Secondary, HeartbeatRecoveryResetsMisses) {
  SecondaryController secondary;
  secondary.ObserveHeartbeat(1);
  secondary.MonitorTick();
  secondary.MonitorTick();  // miss 1
  EXPECT_EQ(secondary.consecutive_misses(), 1);
  secondary.ObserveHeartbeat(2);
  secondary.MonitorTick();
  EXPECT_EQ(secondary.consecutive_misses(), 0);
}

TEST(Secondary, PromoteCarriesFullState) {
  ShardedControlPlane plane(OneShard());
  plane.RegisterServer(1);
  plane.RegisterServer(2);
  ASSERT_TRUE(plane.GsGotoZombie(1, MakeGrants(2, 1)).ok());
  auto grants = plane.GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(grants.ok());

  // The primary dies; the secondary misses its beats and promotes.
  plane.FailShardPrimary(0);
  std::vector<std::size_t> promoted;
  for (int i = 0; i < 3 && promoted.empty(); ++i) {
    promoted = plane.PumpHeartbeats();
  }
  ASSERT_EQ(promoted, std::vector<std::size_t>{0});
  EXPECT_TRUE(plane.secondary(0).failed_over());
  EXPECT_TRUE(plane.primary(0).IsZombie(1));
  EXPECT_EQ(plane.primary(0).FreeRemoteBytes(), kTestBuff);
  // The promoted controller keeps operating: allocate the remaining buffer.
  auto more = plane.GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(more.ok());
  // Fresh ids must not collide with replicated ones.
  EXPECT_NE(more.value()[0].id, grants.value()[0].id);
}

// ---------------------------------------------------------------------------
// RemoteMemoryManager + RemoteExtent (over a live fabric).
// ---------------------------------------------------------------------------

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : verbs_(&fabric_), plane_(OneShard()) {
    user_node_ = AttachNode(&user_up_, &user_mem_, "user");
    host_node_ = AttachNode(&host_up_, &host_mem_, "host");
    plane_.RegisterServer(kUser);
    plane_.RegisterServer(kHost);
    user_mgr_ = std::make_unique<RemoteMemoryManager>(kUser, &verbs_, user_node_, &plane_);
    host_mgr_ = std::make_unique<RemoteMemoryManager>(kHost, &verbs_, host_node_, &plane_);
  }

  rdma::NodeId AttachNode(bool* cpu, bool* mem, std::string name) {
    rdma::NodePort port;
    port.name = std::move(name);
    port.can_initiate = [cpu] { return *cpu; };
    port.memory_accessible = [mem] { return *mem; };
    return fabric_.Attach(std::move(port));
  }

  static constexpr ServerId kUser = 1;
  static constexpr ServerId kHost = 2;
  rdma::Fabric fabric_;
  rdma::Verbs verbs_;
  ShardedControlPlane plane_;
  bool user_up_ = true, user_mem_ = true, host_up_ = true, host_mem_ = true;
  rdma::NodeId user_node_ = rdma::kInvalidNode;
  rdma::NodeId host_node_ = rdma::kInvalidNode;
  std::unique_ptr<RemoteMemoryManager> user_mgr_;
  std::unique_ptr<RemoteMemoryManager> host_mgr_;
};

TEST_F(ManagerTest, DelegationRegistersBuffersWithController) {
  auto n = host_mgr_->DelegateOnZombie(4 * kTestBuff);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(plane_.FreeRemoteBytes(), 4 * kTestBuff);
  EXPECT_EQ(host_mgr_->delegated().size(), 4u);
  EXPECT_TRUE(plane_.IsZombie(kHost));
}

TEST_F(ManagerTest, DelegationBelowBuffSizeRejected) {
  EXPECT_FALSE(host_mgr_->DelegateOnZombie(kTestBuff / 2).ok());
}

TEST_F(ManagerTest, ExtentReadsBackWrittenPage) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  host_up_ = false;  // host is now a zombie: CPU off, memory alive
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();

  std::vector<std::byte> page(kPageSize, std::byte{0x5A});
  ASSERT_TRUE(extent.value()->WritePage(7, page).ok());
  std::vector<std::byte> readback(kPageSize);
  ASSERT_TRUE(extent.value()->ReadPage(7, readback).ok());
  EXPECT_EQ(readback[100], std::byte{0x5A});
  EXPECT_EQ(extent.value()->remote_writes(), 1u);
  EXPECT_EQ(extent.value()->remote_reads(), 1u);
}

TEST_F(ManagerTest, ExtentBoundsChecked) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(kTestBuff);
  ASSERT_TRUE(extent.ok());
  const std::uint64_t beyond = extent.value()->capacity_pages();
  EXPECT_FALSE(extent.value()->WritePage(beyond, {}).ok());
  EXPECT_FALSE(extent.value()->ReadPage(beyond, {}).ok());
}

TEST_F(ManagerTest, ReclaimFallsBackToLocalMirror) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent_result = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent_result.ok());
  RemoteExtent* extent = extent_result.value();

  std::vector<std::byte> page(kPageSize, std::byte{0x11});
  ASSERT_TRUE(extent->WritePage(3, page).ok());

  // The host wakes and reclaims everything; the controller notifies us via
  // the agent directory — here we deliver the notice directly.
  extent->OnBuffersReclaimed(extent->buffer_ids());

  // The page is still readable, but from the (slower) local mirror.
  std::vector<std::byte> readback(kPageSize);
  auto cost = extent->ReadPage(3, readback);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(extent->mirror_reads(), 1u);
  EXPECT_GE(cost.value(), 50 * kMicrosecond);  // storage-class latency

  // A page never written before the reclaim is genuinely lost.
  EXPECT_EQ(extent->ReadPage(9, readback).code(), ErrorCode::kNotFound);
}

TEST_F(ManagerTest, ReclaimCountsOnlyMirroredPagesOfReclaimedSlots) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(4 * kTestBuff).ok());
  const std::uint64_t per_slot = kTestBuff / kPageSize;

  // Nothing mirrored yet: reclaiming affects no page, but the slot is dead.
  auto fresh = user_mgr_->AllocExtension(kTestBuff);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->OnBuffersReclaimed(fresh.value()->buffer_ids()), 0u);
  std::vector<std::byte> buf(kPageSize);
  EXPECT_EQ(fresh.value()->ReadPage(0, buf).code(), ErrorCode::kNotFound);

  auto extent_result = user_mgr_->AllocExtension(3 * kTestBuff);
  ASSERT_TRUE(extent_result.ok());
  RemoteExtent* extent = extent_result.value();
  const std::vector<BufferId> ids = extent->buffer_ids();
  ASSERT_EQ(ids.size(), 3u);
  for (std::uint64_t page : {std::uint64_t{1}, per_slot + 5, per_slot + 9, 2 * per_slot + 3}) {
    ASSERT_TRUE(extent->WritePage(page, {}).ok());
  }
  // An unsorted notice with a duplicate and a foreign id: only slot 1's
  // two mirrored pages are affected.
  EXPECT_EQ(extent->OnBuffersReclaimed({999, ids[1], ids[1]}), 2u);
  ASSERT_TRUE(extent->ReadPage(per_slot + 5, buf).ok());
  ASSERT_TRUE(extent->ReadPage(1, buf).ok());
  EXPECT_EQ(extent->mirror_reads(), 1u);
  EXPECT_EQ(extent->remote_reads(), 1u);
  EXPECT_EQ(extent->OnBuffersReclaimed({ids[2], ids[0]}), 2u);
  ASSERT_TRUE(extent->ReadPage(1, buf).ok());
  EXPECT_EQ(extent->mirror_reads(), 2u);
}

TEST_F(ManagerTest, RehomeAfterReplacementGrants) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent_result = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent_result.ok());
  RemoteExtent* extent = extent_result.value();
  ASSERT_TRUE(extent->WritePage(2, {}).ok());

  // Reclaim pushes the page into the mirror: reads keep working from there.
  extent->OnBuffersReclaimed(extent->buffer_ids());
  std::vector<std::byte> buf(kPageSize);
  ASSERT_TRUE(extent->ReadPage(2, buf).ok());
  EXPECT_EQ(extent->mirror_reads(), 1u);
}

TEST_F(ManagerTest, ReclaimOnWakeReleasesRegions) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(3 * kTestBuff).ok());
  auto reclaimed = host_mgr_->ReclaimOnWake(2 * kTestBuff);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 2u);
  EXPECT_EQ(host_mgr_->delegated().size(), 1u);
  EXPECT_EQ(plane_.FreeRemoteBytes(), kTestBuff);
}

TEST_F(ManagerTest, ReleaseExtentReturnsBuffers) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(plane_.FreeRemoteBytes(), 0u);
  ASSERT_TRUE(user_mgr_->ReleaseExtent(extent.value()).ok());
  EXPECT_EQ(plane_.FreeRemoteBytes(), 2 * kTestBuff);
  EXPECT_EQ(user_mgr_->extent_count(), 0u);
}

TEST_F(ManagerTest, StripingSpreadsPagesAcrossBuffers) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok());
  const std::uint64_t pages_per_buffer = PagesOf(kTestBuff);
  // Writing one page in each half must succeed and stay independent.
  std::vector<std::byte> a(kPageSize, std::byte{0xAA});
  std::vector<std::byte> b(kPageSize, std::byte{0xBB});
  ASSERT_TRUE(extent.value()->WritePage(0, a).ok());
  ASSERT_TRUE(extent.value()->WritePage(pages_per_buffer, b).ok());
  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE(extent.value()->ReadPage(pages_per_buffer, read).ok());
  EXPECT_EQ(read[0], std::byte{0xBB});
}

}  // namespace
}  // namespace zombie::remotemem
