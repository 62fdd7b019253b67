// Tests for the concurrent data plane (per-vCPU paging shards with batched
// remote faults): the shards=1 bit-identity contract against the plain
// HostPager, determinism across thread counts, the rider/closer charging
// model of RemoteFaultBatcher, seeded home-shard assignment, and the lanes'
// private state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/hv/fault_batch.h"
#include "src/hv/page_table.h"
#include "src/hv/pager.h"
#include "src/hv/replacement.h"
#include "src/hv/sharded_pager.h"
#include "src/workloads/sharded_hotloop.h"

namespace zombie::hv {
namespace {

constexpr std::uint64_t kPages = 4096;
constexpr std::uint64_t kFrames = 2048;
constexpr std::uint64_t kAccesses = 20'000;
constexpr std::uint64_t kSeed = 99;
constexpr DeviceLatency kLatency{10 * kMicrosecond, 8 * kMicrosecond};

void ExpectStatsEq(const PagerStats& a, const PagerStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.policy_cycles, b.policy_cycles);
  EXPECT_EQ(a.total_cost, b.total_cost);
}

// The historical single-threaded loop, verbatim: one HostPager charging the
// backend per page, fed by one seeded stream.
PagerStats RunPlainLoop(PolicyKind policy, const workloads::PatternParams& pattern) {
  DeviceBackend backend("remote-ram", kLatency);
  HostPager pager(kPages, kFrames, MakePolicy(policy, {}, 5), &backend, {});
  workloads::AccessPattern stream(kPages, pattern, kSeed);
  std::vector<workloads::PageAccess> buffer(1024);
  std::uint64_t remaining = kAccesses;
  while (remaining > 0) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer.size(), remaining));
    const std::span<workloads::PageAccess> slice(buffer.data(), n);
    stream.FillBatch(slice);
    pager.AccessBatch(slice);
    remaining -= n;
  }
  return pager.stats();
}

workloads::ShardedHotLoopResult RunSharded(PolicyKind policy, std::uint32_t shards,
                                           int threads, std::uint32_t batch_pages,
                                           const char* pattern = "tiered") {
  workloads::ShardedHotLoopOptions options;
  options.footprint_pages = kPages;
  options.local_frames = kFrames;
  options.policy = policy;
  options.pattern = workloads::HotloopPattern(pattern);
  options.accesses = kAccesses;
  options.seed = kSeed;
  options.shards = shards;
  options.threads = threads;
  options.fault_batch.batch_pages = batch_pages;
  options.backend_latency = kLatency;
  return workloads::RunShardedHotLoop(options);
}

// ---------------------------------------------------------------------------
// shards=1: the concurrent data plane collapses to the historical loop.
// ---------------------------------------------------------------------------

TEST(ShardedPagerTest, OneShardUnbatchedIsBitIdenticalToHostPager) {
  for (const PolicyKind policy : kAllPolicyKinds) {
    SCOPED_TRACE(PolicyKindName(policy));
    const PagerStats plain = RunPlainLoop(policy, workloads::HotloopPattern("tiered"));
    const auto sharded = RunSharded(policy, /*shards=*/1, /*threads=*/1,
                                    /*batch_pages=*/1);
    ExpectStatsEq(sharded.stats, plain);
  }
}

// Pins today's shards=1 fault counts (seed 99, tiered/zipf/scan, 20k
// accesses): the golden victim sequences of the concurrent data plane.  A
// change here means the replacement behaviour changed, not just the plumbing.
TEST(ShardedPagerTest, OneShardGoldenFaultCounts) {
  const struct {
    const char* pattern;
    std::uint64_t fifo, clock, mixed;
  } kGolden[] = {
      {"scan", 20000, 20000, 20000},
      {"zipf", 3466, 3469, 3399},
      {"tiered", 5985, 5993, 5639},
  };
  for (const auto& golden : kGolden) {
    SCOPED_TRACE(golden.pattern);
    EXPECT_EQ(RunSharded(PolicyKind::kFifo, 1, 1, 8, golden.pattern).stats.faults,
              golden.fifo);
    EXPECT_EQ(RunSharded(PolicyKind::kClock, 1, 1, 8, golden.pattern).stats.faults,
              golden.clock);
    EXPECT_EQ(RunSharded(PolicyKind::kMixed, 1, 1, 8, golden.pattern).stats.faults,
              golden.mixed);
  }
}

// Batching changes costs (riders pay the stream share) but never the
// replacement decisions: fault/eviction counters are batch-invariant.
TEST(ShardedPagerTest, BatchSizeNeverChangesVictimSelection) {
  const auto unbatched = RunSharded(PolicyKind::kMixed, 4, 1, 1);
  const auto batched = RunSharded(PolicyKind::kMixed, 4, 1, 16);
  EXPECT_EQ(unbatched.stats.faults, batched.stats.faults);
  EXPECT_EQ(unbatched.stats.major_faults, batched.stats.major_faults);
  EXPECT_EQ(unbatched.stats.evictions, batched.stats.evictions);
  EXPECT_EQ(unbatched.stats.writebacks, batched.stats.writebacks);
  EXPECT_EQ(unbatched.stats.policy_cycles, batched.stats.policy_cycles);
  EXPECT_GT(batched.rider_pages, 0u);
  EXPECT_LT(batched.round_trips, unbatched.round_trips);
}

// ---------------------------------------------------------------------------
// Thread count is wall-clock only: simulated results are a pure function of
// (seed, shards, batch).
// ---------------------------------------------------------------------------

TEST(ShardedPagerTest, ResultsIdenticalAcrossThreadCounts) {
  const auto serial = RunSharded(PolicyKind::kMixed, 4, 1, 8);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    const auto parallel = RunSharded(PolicyKind::kMixed, 4, threads, 8);
    ExpectStatsEq(parallel.stats, serial.stats);
    ASSERT_EQ(parallel.shard_stats.size(), serial.shard_stats.size());
    for (std::size_t s = 0; s < serial.shard_stats.size(); ++s) {
      SCOPED_TRACE(s);
      ExpectStatsEq(parallel.shard_stats[s], serial.shard_stats[s]);
    }
    EXPECT_EQ(parallel.round_trips, serial.round_trips);
    EXPECT_EQ(parallel.rider_pages, serial.rider_pages);
  }
}

// The lanes count their own round trips; the count a shared ring of RPC
// slots used to report (one acquisition per flush) is their shard-order sum,
// whatever the thread count.
TEST(ShardedPagerTest, RingCountIsTheLanesRoundTripsAtEveryThreadCount) {
  const auto serial = RunSharded(PolicyKind::kMixed, 4, 1, 8);
  EXPECT_GT(serial.round_trips, 0u);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    const auto run = RunSharded(PolicyKind::kMixed, 4, threads, 8);
    EXPECT_EQ(run.ring_acquisitions, run.round_trips);
    EXPECT_EQ(run.round_trips, serial.round_trips);
  }
}

// What a lane writes while it runs (its pager and batcher) never shares a
// cache line with another lane's.
TEST(ShardedPagerTest, LanesWriteDisjointCacheLines) {
  ShardedPagerConfig config;
  config.shards = 8;
  config.seed = kSeed;
  config.fault_batch.batch_pages = 8;
  ShardedPager pager(kPages, kFrames, PolicyKind::kMixed, kLatency, config);
  struct Lines {
    std::uintptr_t first, last;
  };
  std::vector<Lines> lines;
  for (std::uint32_t s = 0; s < pager.shards(); ++s) {
    const auto begin = reinterpret_cast<std::uintptr_t>(pager.lane(s));
    ASSERT_NE(begin, 0u);
    lines.push_back({begin / kLaneAlignment, (begin + sizeof(HostPager) - 1) / kLaneAlignment});
  }
  for (std::size_t a = 0; a < lines.size(); ++a) {
    for (std::size_t b = a + 1; b < lines.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "lanes " << a << " and " << b);
      EXPECT_TRUE(lines[a].last < lines[b].first || lines[b].last < lines[a].first);
    }
  }
}

TEST(ShardedPagerTest, MergedStatsIsShardOrderSumOfLanes) {
  const auto run = RunSharded(PolicyKind::kFifo, 4, 2, 8);
  PagerStats sum;
  for (const PagerStats& lane : run.shard_stats) {
    sum.accesses += lane.accesses;
    sum.faults += lane.faults;
    sum.major_faults += lane.major_faults;
    sum.evictions += lane.evictions;
    sum.writebacks += lane.writebacks;
    sum.policy_cycles += lane.policy_cycles;
    sum.total_cost += lane.total_cost;
  }
  EXPECT_EQ(run.stats.accesses, kAccesses);
  EXPECT_EQ(run.stats.faults, sum.faults);
  // MergedStats additionally folds in the per-lane drain cost (the final
  // partial batches' round trips), so total_cost can only exceed the sum.
  EXPECT_GE(run.stats.total_cost, sum.total_cost);
}

// ---------------------------------------------------------------------------
// RemoteFaultBatcher charging model.
// ---------------------------------------------------------------------------

TEST(FaultBatchTest, RidersPayStreamShareCloserPaysFullTrip) {
  FaultBatchConfig config;
  config.batch_pages = 4;
  RemoteFaultBatcher batcher(kLatency, config);

  static_assert(kStreamFraction == 0.25);
  const Duration stream_read = kLatency.read / 4;
  EXPECT_EQ(batcher.OnLoad(), stream_read);
  EXPECT_EQ(batcher.OnLoad(), stream_read);
  EXPECT_EQ(batcher.OnLoad(), stream_read);
  EXPECT_EQ(batcher.round_trips(), 0u);  // nothing flushed yet
  EXPECT_EQ(batcher.OnLoad(), kLatency.read);  // closes the batch
  EXPECT_EQ(batcher.round_trips(), 1u);
  EXPECT_EQ(batcher.rider_pages(), 3u);
  // Batch total: full + (n-1) * stream.
  EXPECT_EQ(kLatency.read + 3 * stream_read, kLatency.read + 3 * (kLatency.read / 4));
}

TEST(FaultBatchTest, DrainChargesTheOutstandingTrip) {
  FaultBatchConfig config;
  config.batch_pages = 4;
  RemoteFaultBatcher batcher(kLatency, config);

  EXPECT_EQ(batcher.Drain(), 0);  // nothing pending
  batcher.OnLoad();
  batcher.OnStore();  // last pending op prices the trip
  const Duration stream_write = kLatency.write / 4;
  EXPECT_EQ(batcher.Drain(), kLatency.write - stream_write);
  EXPECT_EQ(batcher.round_trips(), 1u);
  EXPECT_EQ(batcher.Drain(), 0);  // drained: idempotent
}

TEST(FaultBatchTest, BatchOfOneIsBitIdenticalToUnbatchedCharges) {
  FaultBatchConfig config;
  config.batch_pages = 1;
  RemoteFaultBatcher batcher(kLatency, config);
  // Every page closes its own batch and pays the full latency — exactly the
  // per-page backend charge of the unbatched path.
  EXPECT_EQ(batcher.OnLoad(), kLatency.read);
  EXPECT_EQ(batcher.OnStore(), kLatency.write);
  EXPECT_EQ(batcher.Drain(), 0);
  EXPECT_EQ(batcher.round_trips(), 2u);
  EXPECT_EQ(batcher.rider_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded home-shard assignment.
// ---------------------------------------------------------------------------

TEST(HomeShardTest, DeterministicAndSeedSensitive) {
  for (PageIndex page = 0; page < 64; ++page) {
    EXPECT_EQ(HomeShard(page, 42, 4), HomeShard(page, 42, 4));
    EXPECT_EQ(HomeShard(page, 42, 1), 0u);
  }
  // Different seeds must produce a different partition (splitmix64 mixes the
  // seed into every page's hash; 256 pages all landing identically would
  // mean the seed is ignored).
  std::size_t moved = 0;
  for (PageIndex page = 0; page < 256; ++page) {
    moved += HomeShard(page, 1, 4) != HomeShard(page, 2, 4) ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);
}

TEST(HomeShardTest, RoughlyBalancedAcrossShards) {
  constexpr std::uint32_t kShards = 4;
  std::vector<std::uint64_t> counts(kShards, 0);
  for (PageIndex page = 0; page < kPages; ++page) {
    const std::uint32_t shard = HomeShard(page, kSeed, kShards);
    ASSERT_LT(shard, kShards);
    ++counts[shard];
  }
  // Loose bounds: a uniform hash puts ~1024 pages per shard; anything inside
  // [512, 1536] rules out degenerate clustering without being flaky.
  for (const std::uint64_t count : counts) {
    EXPECT_GT(count, kPages / kShards / 2);
    EXPECT_LT(count, kPages / kShards * 3 / 2);
  }
}

}  // namespace
}  // namespace zombie::hv
