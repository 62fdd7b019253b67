// Sharded control plane and lease protocol: id-stride ownership, global
// zombie-first allocation across shards, the shards=1 plane pinned to the
// ids and grants of the classic single controller, lease grant/renew/expiry
// semantics, expiry cleanup (orphaned buffers must be 0), deferred cleanup
// while a shard's primary is down, per-shard failover, and the detailed
// escalation statuses of GS_reclaim / GS_alloc_ext.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/remotemem/lease.h"
#include "src/remotemem/sharded_plane.h"

namespace zombie::remotemem {
namespace {

constexpr Bytes kBuff = 4 * kMiB;

std::vector<BufferGrant> MakeGrants(std::size_t n, ServerId host, Bytes size = kBuff) {
  std::vector<BufferGrant> grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back({kInvalidBuffer, /*rkey=*/1000 + i, size, host, BufferType::kZombie});
  }
  return grants;
}

// ---------------------------------------------------------------------------
// LeaseManager.
// ---------------------------------------------------------------------------

TEST(LeaseManager, GrantRenewExpireEpochs) {
  LeaseManager leases(LeaseConfig{.ttl = 300});
  EXPECT_EQ(leases.Grant(7, 0), 1u);
  EXPECT_TRUE(leases.IsLive(7, 300));   // deadline is inclusive
  EXPECT_FALSE(leases.IsLive(7, 301));

  // Renewal pushes the deadline; epoch is unchanged.
  EXPECT_TRUE(leases.Renew(7, 200).ok());
  EXPECT_TRUE(leases.IsLive(7, 500));
  EXPECT_EQ(leases.epoch(7), 1u);

  // Expiry sweep reports each lapsed host once, in ascending order.
  leases.Grant(3, 200);
  auto lapsed = leases.ExpireDue(501);
  ASSERT_EQ(lapsed.size(), 2u);
  EXPECT_EQ(lapsed[0], 3u);
  EXPECT_EQ(lapsed[1], 7u);
  EXPECT_TRUE(leases.ExpireDue(600).empty());

  // An expired lease cannot be renewed, only re-granted (epoch bump).
  EXPECT_EQ(leases.Renew(7, 600).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(leases.Touch(7, 600), 2u);
  EXPECT_TRUE(leases.IsLive(7, 700));
  // Touch on a live lease renews without an epoch bump.
  EXPECT_EQ(leases.Touch(7, 700), 2u);
  // Never-granted hosts: Renew fails, epoch is 0.
  EXPECT_EQ(leases.Renew(99, 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(leases.epoch(99), 0u);
}

// ---------------------------------------------------------------------------
// Sharded plane fixture: 4 hosts + 2 users on a configurable shard count.
// ---------------------------------------------------------------------------

class ShardedPlaneTest : public ::testing::Test {
 protected:
  static constexpr ServerId kZ1 = 1, kZ2 = 2, kZ3 = 3, kZ4 = 4;
  static constexpr ServerId kUserA = 5, kUserB = 6;

  static ShardedControlPlane MakePlane(std::size_t shards) {
    PlaneConfig config;
    config.buff_size = kBuff;
    config.shards = shards;
    ShardedControlPlane plane(config);
    for (ServerId s : {kZ1, kZ2, kZ3, kZ4, kUserA, kUserB}) {
      plane.RegisterServer(s);
      plane.GrantLease(s, 0);
    }
    return plane;
  }
};

TEST_F(ShardedPlaneTest, IdStrideOwnershipRoutesToHomeShard) {
  auto plane = MakePlane(3);
  for (ServerId host : {kZ1, kZ2, kZ3, kZ4}) {
    auto ids = plane.GsGotoZombie(host, MakeGrants(3, host));
    ASSERT_TRUE(ids.ok());
    const std::size_t home = plane.ShardOfHost(host);
    for (BufferId id : ids.value()) {
      // Minted ids carry the home shard's residue, so ownership of any id
      // is computable without a lookup table.
      EXPECT_EQ(plane.ShardOfBuffer(id), home);
      EXPECT_TRUE(plane.primary(home).db().Find(id).has_value());
    }
  }
  // Every shard holds only its own residue class.
  EXPECT_TRUE(plane.CheckInvariants().ok());
  for (std::size_t k = 0; k < plane.shard_count(); ++k) {
    for (const auto& rec : plane.primary(k).db().records()) {
      EXPECT_EQ(plane.ShardOfBuffer(rec.id), k);
    }
  }
}

TEST_F(ShardedPlaneTest, ZombieMemoryBeatsActiveAcrossShards) {
  auto plane = MakePlane(2);
  // Zombie memory on shard 0 only (host 1); active slack on both shards.
  ASSERT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(2, kZ1)).ok());
  auto active1 = MakeGrants(2, kZ2);
  auto active2 = MakeGrants(2, kZ3);
  ASSERT_TRUE(plane.DelegateActiveBuffers(kZ2, active1).ok());
  ASSERT_TRUE(plane.DelegateActiveBuffers(kZ3, active2).ok());

  // kUserB's home shard is 1, which holds NO zombie memory — the plane must
  // still hand out every zombie buffer (shard 0) before any active one.
  auto grants = plane.GsAllocExt(kUserB, 3 * kBuff);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 3u);
  EXPECT_EQ(grants.value()[0].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[1].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[2].type, BufferType::kActive);
  EXPECT_TRUE(plane.CheckInvariants().ok());
}

TEST_F(ShardedPlaneTest, SingleShardMatchesClassicController) {
  // A 1-shard plane mints the ids and makes the grants the classic single
  // GlobalMemoryController did (recorded from that allocator before it was
  // folded into the plane).
  auto plane = MakePlane(1);
  auto ids = plane.GsGotoZombie(kZ1, MakeGrants(3, kZ1));
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value(), (std::vector<BufferId>{1, 2, 3}));

  auto grants = plane.GsAllocExt(kUserA, 2 * kBuff);
  ASSERT_TRUE(grants.ok());
  const std::vector<std::pair<BufferId, ServerId>> classic = {{1, kZ1}, {2, kZ1}};
  ASSERT_EQ(grants.value().size(), classic.size());
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(grants.value()[i].id, classic[i].first);
    EXPECT_EQ(grants.value()[i].host, classic[i].second);
  }
}

// Renders grants as "id@host/z|a", one token per grant, in grant order.
std::string GrantTrace(const std::vector<BufferGrant>& grants) {
  std::string out;
  for (const auto& g : grants) {
    if (!out.empty()) {
      out += ' ';
    }
    out += std::to_string(g.id) + "@" + std::to_string(g.host) +
           (g.type == BufferType::kZombie ? "/z" : "/a");
  }
  return out;
}

// Drives a fixed allocation history over 3 zombie hosts (uneven free
// counts, one of them retyped from active by GS_goto_zombie) and 1 active
// host, leaving holes from earlier allocations, and returns the grant
// sequence of every GS_alloc_ext call.
std::vector<std::string> AllocationOrderTrace(std::size_t shards) {
  constexpr ServerId kZ1 = 1, kZ2 = 2, kZ3 = 3, kActive = 4;
  constexpr ServerId kUserA = 5, kUserB = 6;
  PlaneConfig config;
  config.buff_size = kBuff;
  config.shards = shards;
  ShardedControlPlane plane(config);
  for (ServerId s : {kZ1, kZ2, kZ3, kActive, kUserA, kUserB}) {
    plane.RegisterServer(s);
  }
  std::vector<std::string> trace;
  auto record = [&](const Result<std::vector<BufferGrant>>& grants) {
    trace.push_back(grants.ok() ? GrantTrace(grants.value()) : grants.status().ToString());
    return grants.ok() ? grants.value() : std::vector<BufferGrant>{};
  };
  // Z3 lends slack while active, then goes zombie: RetypeHost flips those
  // two buffers to zombie ahead of its two new ones.
  EXPECT_TRUE(plane.DelegateActiveBuffers(kZ3, MakeGrants(2, kZ3)).ok());
  EXPECT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(5, kZ1)).ok());
  EXPECT_TRUE(plane.GsGotoZombie(kZ2, MakeGrants(3, kZ2)).ok());
  EXPECT_TRUE(plane.DelegateActiveBuffers(kActive, MakeGrants(4, kActive)).ok());
  EXPECT_TRUE(plane.GsGotoZombie(kZ3, MakeGrants(2, kZ3)).ok());
  // Holes: release every other buffer of a first allocation.
  const auto first = record(plane.GsAllocExt(kUserA, 7 * kBuff));
  for (std::size_t i = 0; i < first.size(); i += 2) {
    EXPECT_TRUE(plane.GsRelease(kUserA, {first[i].id}).ok());
  }
  record(plane.GsAllocExt(kUserB, 3 * kBuff));
  record(plane.GsAllocExt(kUserA, 8 * kBuff));
  record(plane.GsAllocExt(kUserB, 2 * kBuff));  // the last two free buffers
  record(plane.GsAllocExt(kUserA, kBuff));
  EXPECT_TRUE(plane.CheckInvariants().ok());
  return trace;
}

TEST_F(ShardedPlaneTest, AllocationOrderGolden) {
  // Recorded from the scan-and-sort allocator: per type, round r takes each
  // host's r-th free buffer, hosts ascending, ids ascending within a host;
  // zombie memory across every shard (home shard first) before any active.
  const std::vector<std::string> one_shard = {
      "3@1/z 8@2/z 1@3/z 4@1/z 9@2/z 2@3/z 5@1/z",
      "3@1/z 9@2/z 1@3/z",
      "5@1/z 10@2/z 15@3/z 6@1/z 16@3/z 7@1/z 11@4/a 12@4/a",
      "13@4/a 14@4/a",
      "OUT_OF_MEMORY: rack cannot satisfy guaranteed RAM-Ext allocation: wanted 1 buffers, "
      "granted 0",
  };
  const std::vector<std::string> two_shards = {
      "5@1/z 1@3/z 7@1/z 3@3/z 9@1/z 15@3/z 11@1/z",
      "2@2/z 4@2/z 6@2/z",
      "5@1/z 17@3/z 7@1/z 9@1/z 11@1/z 13@1/z 8@4/a 10@4/a",
      "12@4/a 14@4/a",
      "OUT_OF_MEMORY: rack cannot satisfy guaranteed RAM-Ext allocation: wanted 1 buffers, "
      "granted 0",
  };
  EXPECT_EQ(AllocationOrderTrace(1), one_shard);
  EXPECT_EQ(AllocationOrderTrace(2), two_shards);
}

TEST_F(ShardedPlaneTest, ReleaseStopsAtBufferHeldByAnotherUser) {
  for (std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    auto plane = MakePlane(shards);
    ASSERT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(4, kZ1)).ok());
    ASSERT_TRUE(plane.GsGotoZombie(kZ2, MakeGrants(4, kZ2)).ok());
    auto mine = plane.GsAllocExt(kUserA, 4 * kBuff);
    auto theirs = plane.GsAllocExt(kUserB, 1 * kBuff);
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(theirs.ok());
    const auto& a = mine.value();
    const BufferId foreign = theirs.value()[0].id;

    // kUserB's buffer sits third: the two ids before it are released, the
    // ones after it stay allocated, and the error names the cause.
    const Status st = plane.GsRelease(kUserA, {a[0].id, a[1].id, foreign, a[2].id, a[3].id});
    EXPECT_EQ(st.code(), ErrorCode::kNotFound);
    EXPECT_EQ(st.message(), "buffer not held by user");
    const std::vector<std::pair<BufferId, ServerId>> expected = {
        {a[0].id, kNilServer}, {a[1].id, kNilServer}, {foreign, kUserB},
        {a[2].id, kUserA},     {a[3].id, kUserA},
    };
    for (const auto& [id, user] : expected) {
      const std::size_t k = plane.ShardOfBuffer(id);
      for (const BufferDb* db : {&plane.primary(k).db(), &plane.secondary(k).replica()}) {
        auto rec = db->Find(id);
        ASSERT_TRUE(rec.has_value()) << "buffer " << id;
        EXPECT_EQ(rec->user, user) << "buffer " << id;
      }
    }
    EXPECT_TRUE(plane.CheckInvariants().ok());
  }
}

// Lends `wanted` bytes of active slack whenever AS_get_free_mem asks, and
// records who was asked.
class LendingAgents final : public AgentDirectory {
 public:
  explicit LendingAgents(ShardedControlPlane* plane) : plane_(plane) {}
  Status ReclaimFromUser(ServerId, const std::vector<BufferId>&) override {
    return Status::Ok();
  }
  Bytes RequestActiveDelegation(ServerId host, Bytes wanted) override {
    asked.push_back(host);
    const std::size_t n = static_cast<std::size_t>(wanted / kBuff);
    (void)plane_->DelegateActiveBuffers(host, MakeGrants(n, host));
    return n * kBuff;
  }

  std::vector<ServerId> asked;

 private:
  ShardedControlPlane* plane_;
};

TEST_F(ShardedPlaneTest, SingleShardEscalationMatchesClassicController) {
  // Empty pool: GS_alloc_ext escalates.  The classic controller asked host 1
  // (the first registered non-zombie, non-user server) and granted its two
  // fresh active buffers, ids 1 and 2.
  auto plane = MakePlane(1);
  LendingAgents agents(&plane);
  plane.set_agents(&agents);
  auto grants = plane.GsAllocExt(kUserA, 2 * kBuff);
  ASSERT_TRUE(grants.ok()) << grants.status().ToString();
  EXPECT_EQ(agents.asked, std::vector<ServerId>{kZ1});
  const std::vector<std::pair<BufferId, ServerId>> classic = {{1, kZ1}, {2, kZ1}};
  ASSERT_EQ(grants.value().size(), classic.size());
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(grants.value()[i].id, classic[i].first);
    EXPECT_EQ(grants.value()[i].host, classic[i].second);
    EXPECT_EQ(grants.value()[i].type, BufferType::kActive);
  }
}

// Records US_reclaim notices; lends nothing.
class RecordingAgents final : public AgentDirectory {
 public:
  Status ReclaimFromUser(ServerId user, const std::vector<BufferId>& buffers) override {
    for (BufferId id : buffers) {
      reclaimed.emplace_back(user, id);
    }
    return Status::Ok();
  }
  Bytes RequestActiveDelegation(ServerId, Bytes) override { return 0; }

  std::vector<std::pair<ServerId, BufferId>> reclaimed;
};

TEST_F(ShardedPlaneTest, LeaseExpiryCleansUpWithoutOrphans) {
  auto plane = MakePlane(2);
  RecordingAgents agents;
  plane.set_agents(&agents);
  ASSERT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(3, kZ1)).ok());
  ASSERT_TRUE(plane.GsGotoZombie(kZ2, MakeGrants(3, kZ2)).ok());
  auto grants = plane.GsAllocExt(kUserA, 4 * kBuff);
  ASSERT_TRUE(grants.ok());

  // Everyone but kZ1 renews; kZ1's lease lapses at the deadline sweep.
  const SimTime later = 250 * kMillisecond;
  for (ServerId s : {kZ2, kZ3, kZ4, kUserA, kUserB}) {
    plane.RenewLease(s, later);
  }
  auto expired = plane.ExpireLeases(400 * kMillisecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].host, kZ1);
  EXPECT_EQ(expired[0].hosted_dropped.size(), 3u);  // all of kZ1's buffers
  EXPECT_TRUE(expired[0].used_released.empty());    // kZ1 consumed nothing

  // Users of the dead host's allocated buffers got US_reclaim notices.
  EXPECT_FALSE(agents.reclaimed.empty());
  for (const auto& [user, id] : agents.reclaimed) {
    EXPECT_EQ(user, kUserA);
    EXPECT_EQ(plane.ShardOfBuffer(id), plane.ShardOfHost(kZ1));
  }
  // The invariant the fault scenarios gate on: nothing orphaned, state sane.
  EXPECT_TRUE(plane.OrphanedBuffers(400 * kMillisecond).empty());
  EXPECT_TRUE(plane.CheckInvariants().ok());
  EXPECT_FALSE(plane.IsZombie(kZ1));
}

TEST_F(ShardedPlaneTest, ExpiryCleanupDefersWhileShardPrimaryIsDown) {
  auto plane = MakePlane(2);
  RecordingAgents agents;
  plane.set_agents(&agents);
  ASSERT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(2, kZ1)).ok());

  // kZ1's home shard primary dies, then kZ1's lease lapses: the cleanup
  // cannot run against a frozen shard, so it is deferred.
  const std::size_t home = plane.ShardOfHost(kZ1);
  plane.FailShardPrimary(home);
  for (ServerId s : {kZ2, kZ3, kZ4, kUserA, kUserB}) {
    plane.RenewLease(s, 250 * kMillisecond);
  }
  auto expired = plane.ExpireLeases(400 * kMillisecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_TRUE(expired[0].hosted_dropped.empty());  // deferred, nothing dropped

  // Shard recovers; the next sweep completes the deferred cleanup.
  plane.ReviveShardPrimary(home);
  auto second = plane.ExpireLeases(500 * kMillisecond);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].host, kZ1);
  EXPECT_EQ(second[0].hosted_dropped.size(), 2u);
  EXPECT_TRUE(plane.OrphanedBuffers(500 * kMillisecond).empty());
  EXPECT_TRUE(plane.CheckInvariants().ok());
}

TEST_F(ShardedPlaneTest, ShardFailoverPromotesSecondaryAndPreservesState) {
  auto plane = MakePlane(2);
  ASSERT_TRUE(plane.GsGotoZombie(kZ1, MakeGrants(3, kZ1)).ok());
  auto grants = plane.GsAllocExt(kUserA, 2 * kBuff);
  ASSERT_TRUE(grants.ok());

  const std::size_t home = plane.ShardOfHost(kZ1);
  plane.FailShardPrimary(home);
  EXPECT_FALSE(plane.shard_alive(home));
  // Calls routed to the dead shard fail fast and name it.
  auto blocked = plane.GsGotoZombie(kZ1, MakeGrants(1, kZ1));
  EXPECT_EQ(blocked.code(), ErrorCode::kUnavailable);
  EXPECT_NE(blocked.status().message().find("shard"), std::string::npos);

  // The warm secondary notices the missed beats and promotes its replica.
  std::vector<std::size_t> promoted;
  for (int i = 0; i < 3 && promoted.empty(); ++i) {
    promoted = plane.PumpHeartbeats();
  }
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0], home);
  EXPECT_TRUE(plane.shard_alive(home));

  // The promoted primary carries the full replica: our allocation is still
  // tracked, release round-trips, invariants hold.
  EXPECT_TRUE(plane.GsRelease(kUserA, {grants.value()[0].id}).ok());
  EXPECT_FALSE(plane.GsRelease(kUserB, {grants.value()[1].id}).ok());
  EXPECT_TRUE(plane.CheckInvariants().ok());
  // The other shard's pair was never disturbed.
  EXPECT_FALSE(plane.secondary(1 - home).failed_over());
}

// ---------------------------------------------------------------------------
// Detailed escalation statuses (which buffers / which hosts failed).
// ---------------------------------------------------------------------------

// Refuses US_reclaim, lends nothing: both escalation paths fail.
class RefusingAgents final : public AgentDirectory {
 public:
  Status ReclaimFromUser(ServerId user, const std::vector<BufferId>&) override {
    return Status(ErrorCode::kUnavailable,
                  "agent " + std::to_string(user) + " unreachable");
  }
  Bytes RequestActiveDelegation(ServerId, Bytes) override { return 0; }
};

// A 1-shard plane with `hosts` registered and leased.
ShardedControlPlane OneShardPlane(std::initializer_list<ServerId> hosts) {
  ShardedControlPlane plane(
      PlaneConfig{.buff_size = kBuff, .shards = 1, .lease = {}, .secondary = {}});
  for (ServerId s : hosts) {
    plane.RegisterServer(s);
    plane.GrantLease(s, 0);
  }
  return plane;
}

TEST(ControllerEscalation, GsReclaimNamesFailedUsersAndBuffers) {
  auto plane = OneShardPlane({1, 2});
  RefusingAgents agents;
  plane.set_agents(&agents);
  auto ids = plane.GsGotoZombie(1, MakeGrants(2, 1));
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(plane.GsAllocExt(2, 2 * kBuff).ok());  // both buffers now used

  // Reclaiming allocated buffers needs US_reclaim; the agent refuses, so the
  // status names the user and the exact buffers, and nothing is erased.
  auto reclaimed = plane.GsReclaim(1, 2);
  ASSERT_FALSE(reclaimed.ok());
  EXPECT_EQ(reclaimed.code(), ErrorCode::kUnavailable);
  const std::string message = reclaimed.status().message();
  EXPECT_NE(message.find("US_reclaim failed for user 2"), std::string::npos) << message;
  for (BufferId id : ids.value()) {
    EXPECT_NE(message.find(std::to_string(id)), std::string::npos) << message;
  }
  EXPECT_EQ(plane.primary(0).db().size(), 2u);  // failed reclaim left the db untouched
  EXPECT_EQ(plane.primary(0).db().free_count(), 0u);
}

TEST(ControllerEscalation, GsAllocExtReportsEscalationLedger) {
  auto plane = OneShardPlane({1, 2, 3});
  RefusingAgents agents;
  plane.set_agents(&agents);
  ASSERT_TRUE(plane.GsGotoZombie(1, MakeGrants(1, 1)).ok());

  // Want 3, pool holds 1, escalation to hosts 2 (host 3 is the user) lends
  // nothing: the failure itemises every AS_get_free_mem result.
  auto grants = plane.GsAllocExt(3, 3 * kBuff);
  ASSERT_FALSE(grants.ok());
  EXPECT_EQ(grants.code(), ErrorCode::kOutOfMemory);
  const std::string message = grants.status().message();
  EXPECT_NE(message.find("wanted 3 buffers, granted 1"), std::string::npos) << message;
  EXPECT_NE(message.find("AS_get_free_mem(host 2) -> 0 B"), std::string::npos) << message;
  EXPECT_EQ(message.find("AS_get_free_mem(host 3)"), std::string::npos) << message;
  // All-or-nothing: the one granted buffer was rolled back.
  EXPECT_EQ(plane.FreeRemoteBytes(), kBuff);
}

}  // namespace
}  // namespace zombie::remotemem
