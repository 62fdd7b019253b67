#include "src/hv/fault_batch.h"

#include <algorithm>
#include <cassert>

namespace zombie::hv {

RemoteFaultBatcher::RemoteFaultBatcher(rdma::ClientRing* ring, DeviceLatency latency,
                                       FaultBatchConfig config)
    : ring_(ring), latency_(latency), config_(config) {
  assert(ring_ != nullptr);
  config_.batch_pages = std::max<std::uint32_t>(config_.batch_pages, 1);
  stream_read_ = static_cast<Duration>(static_cast<double>(latency_.read) * kStreamFraction);
  stream_write_ = static_cast<Duration>(static_cast<double>(latency_.write) * kStreamFraction);
  pending_.reserve(config_.batch_pages);
}

Duration RemoteFaultBatcher::Charge(PageIndex page, bool is_store) {
  pending_.push_back({page, is_store});
  if (pending_.size() < config_.batch_pages) {
    // A rider: its transfer streams on the round trip a later page will pay.
    return StreamCost(is_store);
  }
  // This page closes the batch and pays the round trip.
  Flush();
  return FullCost(is_store);
}

Duration RemoteFaultBatcher::Drain() {
  if (pending_.empty()) {
    return 0;
  }
  // The riders already paid their stream share; the trip itself is still
  // owed.  Price it off the last page's direction.
  const bool is_store = pending_.back().is_store;
  Flush();
  return FullCost(is_store) - StreamCost(is_store);
}

void RemoteFaultBatcher::Flush() {
  // One simulated RDMA round trip: serialise the page list into a shared
  // ring slot.  The slot payloads keep their capacity, so the steady state
  // is allocation-free once every slot has seen a full batch.
  const std::size_t slot = ring_->Acquire();
  rdma::ClientRing::Slot& s = ring_->slot(slot);
  rdma::PayloadWriter request(&s.request);
  request.Reset();
  request.PutU32(static_cast<std::uint32_t>(pending_.size()));
  for (const PendingPage& p : pending_) {
    request.PutU64(p.page);
    request.PutU32(p.is_store ? 1 : 0);
  }
  rdma::PayloadWriter response(&s.response);
  response.Reset();
  response.PutU32(static_cast<std::uint32_t>(pending_.size()));  // ack
  ring_->Release(slot);

  ++round_trips_;
  rider_pages_ += pending_.size() - 1;
  pending_.clear();
}

}  // namespace zombie::hv
