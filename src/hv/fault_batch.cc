#include "src/hv/fault_batch.h"

#include <algorithm>

namespace zombie::hv {

RemoteFaultBatcher::RemoteFaultBatcher(DeviceLatency latency, FaultBatchConfig config)
    : latency_(latency), config_(config) {
  config_.batch_pages = std::max<std::uint32_t>(config_.batch_pages, 1);
  stream_read_ = static_cast<Duration>(static_cast<double>(latency_.read) * kStreamFraction);
  stream_write_ = static_cast<Duration>(static_cast<double>(latency_.write) * kStreamFraction);
}

Duration RemoteFaultBatcher::Charge(bool is_store) {
  ++pending_;
  last_is_store_ = is_store;
  if (pending_ < config_.batch_pages) {
    // A rider: its transfer streams on the round trip a later page will pay.
    return StreamCost(is_store);
  }
  // This page closes the batch and pays the round trip.
  Flush();
  return FullCost(is_store);
}

Duration RemoteFaultBatcher::Drain() {
  if (pending_ == 0) {
    return 0;
  }
  // The riders already paid their stream share; the trip itself is still
  // owed.  Price it off the last page's direction.
  const bool is_store = last_is_store_;
  Flush();
  return FullCost(is_store) - StreamCost(is_store);
}

void RemoteFaultBatcher::Flush() {
  ++round_trips_;
  rider_pages_ += pending_ - 1;
  pending_ = 0;
}

}  // namespace zombie::hv
