// The threaded experiment hot loop: generator -> sharded pager ->
// replacement policy, one lane per "vCPU", lanes scheduled on a WorkQueue.
//
// Each shard runs the classic single-threaded loop over its own slice of the
// page space: its own AccessPattern stream (seeded shard_seed(s)), its own
// HostPager lane, its own remote-fault batcher counting its own round trips.
// Nothing mutable is shared between lanes, so the simulated results are a
// pure function of (seed, shards, batch size) — the thread count only
// changes wall-clock.
//
// shards=1, batch=1 reproduces the historical micro_hotloop scenario loop
// bit for bit: same stream, same pager state machine, same costs.
#ifndef ZOMBIELAND_SRC_WORKLOADS_SHARDED_HOTLOOP_H_
#define ZOMBIELAND_SRC_WORKLOADS_SHARDED_HOTLOOP_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"
#include "src/hv/sharded_pager.h"
#include "src/workloads/access_pattern.h"

namespace zombie::workloads {

// The microbenchmark's canonical pattern shapes, by name: "scan" (one cyclic
// sweep — the LRU worst case), "zipf" (skewed point accesses), "tiered"
// (hot core + warm ring + uniform tail).  Shared by bench/micro_hotloop and
// the hotloop_threaded scenario so the two stay in lockstep.
PatternParams HotloopPattern(std::string_view name);

struct ShardedHotLoopOptions {
  std::uint64_t footprint_pages = 4096;
  std::uint64_t local_frames = 2048;
  hv::PolicyKind policy = hv::PolicyKind::kMixed;
  PatternParams pattern;
  // Total accesses across all shards, split proportionally to the pages each
  // shard owns (deterministic remainder handling in shard order).
  std::uint64_t accesses = 4'000'000;
  std::uint64_t seed = 99;
  std::uint32_t shards = 1;
  // Worker threads executing the shard lanes (wall-clock only; simulated
  // results do not depend on it).
  int threads = 1;
  hv::FaultBatchConfig fault_batch;  // batch_pages = 1: unbatched semantics
  hv::DeviceLatency backend_latency{10 * kMicrosecond, 8 * kMicrosecond};
  std::size_t chunk = 1024;  // accesses per FillBatch/AccessBatch call
};

struct ShardedHotLoopResult {
  hv::PagerStats stats;  // deterministic shard-order merge (incl. drains)
  std::vector<hv::PagerStats> shard_stats;
  std::uint64_t accesses = 0;
  double wall_seconds = 0.0;
  std::uint64_t round_trips = 0;  // batched remote-fault RPCs issued
  std::uint64_t rider_pages = 0;  // pages that rode an already-paid trip
  // Equal to round_trips: what the shared ring the lanes no longer use
  // counted.  Kept for perfbench's fingerprint (ROADMAP item 3).
  std::uint64_t ring_acquisitions = 0;

  double accesses_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(accesses) / wall_seconds : 0.0;
  }
};

ShardedHotLoopResult RunShardedHotLoop(const ShardedHotLoopOptions& options);

}  // namespace zombie::workloads

#endif  // ZOMBIELAND_SRC_WORKLOADS_SHARDED_HOTLOOP_H_
