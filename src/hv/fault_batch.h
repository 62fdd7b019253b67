// Batched remote faults: one simulated RDMA round trip carries many pages.
//
// The single-threaded pager charged a full backend round trip per faulted
// page.  In the sharded data plane each per-vCPU lane instead coalesces its
// remote traffic: the lane accumulates faulted pages, and when the batch
// fills it issues them as one round trip.  The page that closes the batch
// pays the full device latency (the round trip itself); the earlier riders
// pay only a streaming fraction of it (their transfers overlap the trip that
// was going to happen anyway).
//
// Determinism contract: costs are integer nanoseconds computed only from the
// configured latencies and the arrival order within the lane, so a lane's
// total is a pure function of (seed, shard count, batch size).  With
// batch_pages == 1 every page closes its own batch and pays the full
// latency — bit-identical to the unbatched HostPager fault path, which is
// what pins shards=1 to the historical golden sequences.
#ifndef ZOMBIELAND_SRC_HV_FAULT_BATCH_H_
#define ZOMBIELAND_SRC_HV_FAULT_BATCH_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/hv/params.h"

namespace zombie::hv {

// Marginal cost of a rider page on an already-paid round trip, as a
// fraction of the full one-page latency.
inline constexpr double kStreamFraction = 0.25;

struct FaultBatchConfig {
  // Pages per simulated round trip.  1 = a round trip per page, bit-identical
  // to the unbatched fault path.
  std::uint32_t batch_pages = 1;
};

// One lane's remote-fault coalescer.  NOT thread-safe, and shares nothing:
// each shard owns one, and its counters are the lane's own.
class RemoteFaultBatcher {
 public:
  RemoteFaultBatcher(DeviceLatency latency, FaultBatchConfig config);

  // Charges one faulted page: a reload from remote memory (load) or a dirty
  // writeback to it (store).  Returns the simulated cost of this page.
  Duration OnLoad() { return Charge(/*is_store=*/false); }
  Duration OnStore() { return Charge(/*is_store=*/true); }

  // Flushes a partially-filled batch at end of run and returns the cost of
  // completing its round trip (0 when nothing is pending).
  Duration Drain();

  std::uint64_t round_trips() const { return round_trips_; }
  std::uint64_t rider_pages() const { return rider_pages_; }
  const FaultBatchConfig& config() const { return config_; }

 private:
  Duration Charge(bool is_store);
  Duration FullCost(bool is_store) const {
    return is_store ? latency_.write : latency_.read;
  }
  Duration StreamCost(bool is_store) const {
    return is_store ? stream_write_ : stream_read_;
  }
  // Issues the pending pages as one round trip.
  void Flush();

  DeviceLatency latency_;
  FaultBatchConfig config_;
  // Precomputed truncated stream costs so every charge is integer-exact.
  Duration stream_read_ = 0;
  Duration stream_write_ = 0;
  std::uint32_t pending_ = 0;       // pages waiting for the next round trip
  bool last_is_store_ = false;      // direction of the newest pending page
  std::uint64_t round_trips_ = 0;
  std::uint64_t rider_pages_ = 0;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_FAULT_BATCH_H_
