// The concurrent data plane: per-vCPU paging shards.
//
// One simulated host absorbs remote-memory faults from every page it lent
// out; a single-threaded pager caps that absorption rate at one core.  The
// sharded pager partitions the guest's page space into per-"vCPU" lanes —
// each lane owns a disjoint slice of the page table, its own replacement
// policy state, and its own remote-fault batcher — so fault handling runs on
// worker threads with no shared mutable paging state.  The only cross-lane
// structure is the ClientRing of RPC slots that batched remote faults are
// serialised into (the classic NIC rx/tx-ring shape: per-lane state,
// explicit ring hand-off).
//
// Determinism contract:
//   * pages map to lanes by the seeded HomeShard() hash — a pure function of
//     (page, seed, shard count);
//   * each lane's access stream comes from its own RNG stream
//     (shard_seed(s) = seed + s * gamma, so lane 0 of a 1-shard pager sees
//     exactly the historical single-threaded stream);
//   * frames are split across lanes deterministically, proportional to the
//     pages each lane owns;
//   * per-lane PagerStats merge in shard-index order.
// Together: the merged stats and final table state are a pure function of
// (seed, shard count, batch size), whatever the thread count — golden tests
// pin shards=1 to the unsharded HostPager byte for byte.
#ifndef ZOMBIELAND_SRC_HV_SHARDED_PAGER_H_
#define ZOMBIELAND_SRC_HV_SHARDED_PAGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/hv/fault_batch.h"
#include "src/hv/page_table.h"
#include "src/hv/pager.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"
#include "src/rdma/rpc.h"

namespace zombie::hv {

// Offsets successive shard RNG streams; the golden-ratio gamma splitmix64
// uses, so neighbouring shards land in unrelated parts of the seed space.
inline constexpr std::uint64_t kShardSeedGamma = 0x9e3779b97f4a7c15ULL;

struct ShardedPagerConfig {
  std::uint32_t shards = 1;
  std::uint64_t seed = 0;
  FaultBatchConfig fault_batch;  // batch_pages = 1: bit-identical to HostPager
};

class ShardedPager {
 public:
  // `guest_pages` / `local_frames` are host-wide totals, partitioned across
  // the lanes.  Requires local_frames >= the number of non-empty shards
  // (every lane needs at least one machine frame).
  ShardedPager(std::uint64_t guest_pages, std::uint64_t local_frames, PolicyKind policy,
               DeviceLatency remote_latency, ShardedPagerConfig config);

  std::uint32_t shards() const { return static_cast<std::uint32_t>(lanes_.size()); }
  std::uint64_t guest_pages() const { return guest_pages_; }

  // Pages owned by lane s, and the seed of its RNG stream.
  std::uint64_t shard_pages(std::uint32_t s) const { return lanes_[s].pages; }
  std::uint64_t shard_seed(std::uint32_t s) const { return config_.seed + s * kShardSeedGamma; }

  // Lane s's pager; null for a (degenerate) empty shard.
  HostPager* lane(std::uint32_t s) { return lanes_[s].pager.get(); }
  const HostPager* lane(std::uint32_t s) const { return lanes_[s].pager.get(); }

  // Runs a batch of accesses in lane s's LOCAL page space ([0, shard_pages)).
  // Thread-safe for distinct lanes: each call touches only lane state plus
  // the lock-free ring.
  Duration AccessShard(std::uint32_t s, std::span<const PageAccess> batch);
  // Flushes lane s's partial fault batch (end of run); the cost is folded
  // into the merged stats.
  Duration DrainShard(std::uint32_t s);

  const PagerStats& shard_stats(std::uint32_t s) const { return lanes_[s].pager->stats(); }
  // Sums per-lane stats (plus drain costs) in shard-index order: the merge
  // is deterministic whatever thread interleaving produced the lane stats.
  PagerStats MergedStats() const;

  std::uint64_t round_trips() const;
  std::uint64_t rider_pages() const;
  rdma::ClientRing& ring() { return ring_; }
  const ShardedPagerConfig& config() const { return config_; }

 private:
  struct Lane {
    std::uint64_t pages = 0;
    std::unique_ptr<RemoteFaultBatcher> batcher;
    std::unique_ptr<HostPager> pager;
    Duration drain_cost = 0;
  };

  ShardedPagerConfig config_;
  DeviceBackend backend_;           // shared: stateless fixed-latency device
  rdma::ClientRing ring_;           // shared: lock-free slot hand-off
  std::uint64_t guest_pages_ = 0;
  std::vector<Lane> lanes_;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_SHARDED_PAGER_H_
