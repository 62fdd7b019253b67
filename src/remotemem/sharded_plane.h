// The remote-memory control plane: the one implementation of the GS_*
// allocation policy (Section 4.4 — zombie memory first, then
// AS_get_free_mem escalation to active servers, all-or-nothing).
//
// Buffer ownership is split across N per-shard GlobalMemoryController
// stores with deterministic id-stride ownership: shard k mints buffer ids
// k+1, k+1+N, k+1+2N, ..., so the owner of any id is the residue
// (id - 1) % N — no ownership table to keep consistent.  A host's hosted
// buffers all live in its home shard ((host - 1) % N); its *allocations*
// may come from every shard (zombie memory keeps global priority over
// active memory — the plane allocates per type across shards, not per
// shard across types).  The classic single-controller rack is shards = 1.
//
// Each shard is a primary + warm secondary pair with the existing mirror
// protocol.  On top, the plane replaces the implicit "everything mirrors"
// availability story with an explicit lease/heartbeat protocol in simulated
// time: every host holds a TTL lease; renewal happens via heartbeats (the
// rack drives them each tick); a lease that lapses triggers a deterministic
// cleanup — users of the dead host's buffers get US_reclaim notices, the
// hosted buffers are dropped, and buffers the dead host was consuming are
// freed — so ownership invariants survive silent host death, controller
// crash (secondary promotion via LoadFromReplica) and fabric partitions.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_SHARDED_PLANE_H_
#define ZOMBIELAND_SRC_REMOTEMEM_SHARDED_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/remotemem/global_controller.h"
#include "src/remotemem/lease.h"
#include "src/remotemem/secondary_controller.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

struct PlaneConfig {
  Bytes buff_size = kDefaultBuffSize;
  std::size_t shards = 1;
  LeaseConfig lease;
};

// What a lease expiry cleaned up, per dead host.
struct ExpiryRecord {
  ServerId host = kNilServer;
  // Buffers the host was serving, dropped from the pool (their users were
  // notified via US_reclaim first).
  std::vector<BufferId> hosted_dropped;
  // Buffers the host was consuming, returned to the free pool.
  std::vector<BufferId> used_released;
};

class ShardedControlPlane {
 public:
  explicit ShardedControlPlane(PlaneConfig config = {});

  const PlaneConfig& config() const { return config_; }
  std::size_t shard_count() const { return shards_.size(); }
  // US_reclaim / AS_get_free_mem reach every shard through one directory.
  void set_agents(AgentDirectory* agents);

  // Deterministic ownership.
  std::size_t ShardOfBuffer(BufferId id) const {
    return static_cast<std::size_t>((id - 1) % shards_.size());
  }
  std::size_t ShardOfHost(ServerId host) const {
    return static_cast<std::size_t>((host - 1) % shards_.size());
  }

  // ---- Server lifecycle ---------------------------------------------------
  // Registers the server with every shard (any shard may allocate to it).
  void RegisterServer(ServerId server);
  bool HasServer(ServerId server) const;
  bool IsZombie(ServerId server) const;
  std::vector<ServerId> ZombieList() const;

  // ---- GS_* calls ---------------------------------------------------------
  // Rack-uniform BUFF_SIZE every grant must match.
  Bytes buff_size() const { return config_.buff_size; }
  // GS_goto_zombie: `host` transitions to zombie and delegates `buffers`.
  // Returns the controller-assigned ids, in input order.
  [[nodiscard]] Result<std::vector<BufferId>> GsGotoZombie(
      ServerId host, const std::vector<BufferGrant>& buffers);
  // Delegation from a host that stays active (slack lending while in S0).
  [[nodiscard]] Result<std::vector<BufferId>> DelegateActiveBuffers(
      ServerId host, const std::vector<BufferGrant>& buffers);
  // GS_reclaim: a waking host takes back `nb_buffers` of its delegations.
  [[nodiscard]] Result<std::vector<BufferId>> GsReclaim(ServerId host,
                                          std::size_t nb_buffers);
  // GS_alloc_ext: guaranteed RAM-Ext allocation (all-or-nothing).  Takes
  // zombie memory first, then active memory, then escalates to
  // AS_get_free_mem; a failure names every escalation target and its yield.
  [[nodiscard]] Result<std::vector<BufferGrant>> GsAllocExt(ServerId user, Bytes mem_size);
  // Releases buffers `user` no longer needs.
  [[nodiscard]] Status GsRelease(ServerId user, const std::vector<BufferId>& buffers);

  // ---- Rack-level policies (aggregated across shards) ---------------------
  Bytes FreeRemoteBytes() const;
  std::size_t ServerCount() const { return registry_.size(); }

  // ---- Leases -------------------------------------------------------------
  // Admits `host` with a fresh lease; returns the lease epoch.
  std::uint64_t GrantLease(ServerId host, SimTime now);
  // The heartbeat path: renews a live lease, or re-admits an expired host
  // with a bumped epoch.  Returns the epoch after the renewal.
  std::uint64_t RenewLease(ServerId host, SimTime now);
  const LeaseManager& leases() const { return leases_; }

  // The missed-heartbeat deadline sweep.  Every newly lapsed host (plus any
  // host whose earlier cleanup was deferred because its shard's controller
  // was down) is cleaned up: US_reclaim notices to users of its hosted
  // buffers, hosted buffers dropped, its own allocations freed.  Cleanup on
  // a shard whose primary is down is deferred until that shard recovers.
  std::vector<ExpiryRecord> ExpireLeases(SimTime now);

  // ---- Controller failures / failover ------------------------------------
  void FailShardPrimary(std::size_t shard);
  void ReviveShardPrimary(std::size_t shard);
  bool shard_alive(std::size_t shard) const { return shards_[shard].alive; }

  // One heartbeat period for every shard: a live primary bumps its beat;
  // every secondary ticks its monitor; a monitor that trips promotes the
  // replica (LoadFromReplica) into a fresh primary.  Returns the shards
  // promoted this pump.
  std::vector<std::size_t> PumpHeartbeats();

  // ---- Introspection / verification --------------------------------------
  GlobalMemoryController& primary(std::size_t shard) { return *shards_[shard].primary; }
  const GlobalMemoryController& primary(std::size_t shard) const {
    return *shards_[shard].primary;
  }
  SecondaryController& secondary(std::size_t shard) { return *shards_[shard].secondary; }
  const SecondaryController& secondary(std::size_t shard) const {
    return *shards_[shard].secondary;
  }

  // Ownership invariants, checked across every shard: ids sorted, unique
  // and in the shard's residue class; the maintained free totals and the
  // per-type, per-host free index equal a scan of the records, in the
  // primary and in the warm replica; the replica byte-identical to its
  // primary (replica checks are skipped once that secondary was consumed by
  // a failover).  Error names the first violation.
  [[nodiscard]] Status CheckInvariants() const;
  // Buffers whose host holds no live lease (or that sit in the wrong
  // shard) — must be empty after every recovery.  Ascending ids.
  std::vector<BufferId> OrphanedBuffers(SimTime now) const;

 private:
  struct Shard {
    std::unique_ptr<GlobalMemoryController> primary;
    std::unique_ptr<SecondaryController> secondary;
    bool alive = true;
  };

  ControllerConfig ShardControllerConfig(std::size_t shard) const;
  // Takes up to `want` free buffers for `user`: zombie memory across every
  // live shard first, then active memory — preserving the paper's global
  // allocation priority under sharding.
  std::vector<BufferGrant> TakeAcross(ServerId user, std::size_t want);
  // Returns false when some shard's cleanup had to be deferred (its
  // primary is down).
  bool CleanupExpiredHost(ServerId host, ExpiryRecord* record);

  PlaneConfig config_;
  std::vector<Shard> shards_;
  std::vector<ServerId> registry_;  // sorted
  LeaseManager leases_;
  AgentDirectory* agents_ = nullptr;
  std::vector<ServerId> pending_cleanup_;  // sorted; deferred expiries
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_SHARDED_PLANE_H_
