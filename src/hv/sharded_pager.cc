#include "src/hv/sharded_pager.h"

#include <algorithm>
#include <cassert>

namespace zombie::hv {

ShardedPager::ShardedPager(std::uint64_t guest_pages, std::uint64_t local_frames,
                           PolicyKind policy, DeviceLatency remote_latency,
                           ShardedPagerConfig config)
    : config_(config),
      backend_("remote-batch", remote_latency),
      guest_pages_(guest_pages) {
  config_.shards = std::max<std::uint32_t>(config_.shards, 1);
  lanes_.resize(config_.shards);

  // Seeded partition: every page gets a home lane.
  for (PageIndex p = 0; p < guest_pages; ++p) {
    ++lanes_[HomeShard(p, config_.seed, config_.shards)].pages;
  }

  // Frames split proportionally to owned pages, deterministically in shard
  // order; every non-empty lane gets at least one frame.
  std::uint64_t non_empty = 0;
  for (const Lane& lane : lanes_) {
    non_empty += lane.pages != 0 ? 1 : 0;
  }
  assert(local_frames >= non_empty && "every non-empty lane needs a frame");
  std::uint64_t remaining_frames = local_frames;
  std::uint64_t remaining_pages = guest_pages;
  std::uint64_t lanes_left = non_empty;
  for (Lane& lane : lanes_) {
    if (lane.pages == 0) {
      continue;
    }
    --lanes_left;
    std::uint64_t f = std::max<std::uint64_t>(
        1, remaining_frames * lane.pages / std::max<std::uint64_t>(remaining_pages, 1));
    // Leave at least one frame for every lane still to be sized.
    f = std::min(f, remaining_frames - lanes_left);
    remaining_frames -= f;
    remaining_pages -= lane.pages;
    lane.batcher = std::make_unique<RemoteFaultBatcher>(&ring_, remote_latency,
                                                        config_.fault_batch);
    lane.pager = std::make_unique<HostPager>(lane.pages, f, MakePolicy(policy, {}), &backend_);
    lane.pager->set_fault_batcher(lane.batcher.get());
  }
}

Duration ShardedPager::AccessShard(std::uint32_t s, std::span<const PageAccess> batch) {
  assert(lanes_[s].pager != nullptr && "access to an empty shard");
  return lanes_[s].pager->AccessBatch(batch);
}

Duration ShardedPager::DrainShard(std::uint32_t s) {
  Lane& lane = lanes_[s];
  if (lane.batcher == nullptr) {
    return 0;
  }
  const Duration cost = lane.batcher->Drain();
  lane.drain_cost += cost;
  return cost;
}

PagerStats ShardedPager::MergedStats() const {
  PagerStats merged;
  for (const Lane& lane : lanes_) {
    if (lane.pager == nullptr) {
      continue;
    }
    const PagerStats& s = lane.pager->stats();
    merged.accesses += s.accesses;
    merged.faults += s.faults;
    merged.major_faults += s.major_faults;
    merged.evictions += s.evictions;
    merged.writebacks += s.writebacks;
    merged.policy_cycles += s.policy_cycles;
    merged.total_cost += s.total_cost + lane.drain_cost;
  }
  return merged;
}

std::uint64_t ShardedPager::round_trips() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    n += lane.batcher != nullptr ? lane.batcher->round_trips() : 0;
  }
  return n;
}

std::uint64_t ShardedPager::rider_pages() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) {
    n += lane.batcher != nullptr ? lane.batcher->rider_pages() : 0;
  }
  return n;
}

}  // namespace zombie::hv
