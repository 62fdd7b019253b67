// Batched remote faults: one simulated RDMA round trip carries many pages.
//
// The single-threaded pager charged a full backend round trip per faulted
// page.  In the sharded data plane each per-vCPU lane instead coalesces its
// remote traffic: the lane accumulates faulted pages, and when the batch
// fills it serialises the whole page list into one ClientRing slot — one
// round trip.  The page that closes the batch pays the full device latency
// (the round trip itself); the earlier riders pay only a streaming fraction
// of it (their transfers overlap the trip that was going to happen anyway).
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
#include <vector>

#include "src/common/units.h"
#include "src/hv/page_table.h"
#include "src/hv/params.h"
#include "src/rdma/rpc.h"

namespace zombie::hv {

// Marginal cost of a rider page on an already-paid round trip, as a
// fraction of the full one-page latency.
inline constexpr double kStreamFraction = 0.25;

struct FaultBatchConfig {
  // Pages per simulated round trip.  1 = a round trip per page, bit-identical
  // to the unbatched fault path.
  std::uint32_t batch_pages = 1;
};

// One lane's remote-fault coalescer.  NOT thread-safe: each shard owns one.
// The ClientRing is the shared, thread-safe part — a flush acquires a slot,
// serialises the batch into it, and releases it.
class RemoteFaultBatcher {
 public:
  RemoteFaultBatcher(rdma::ClientRing* ring, DeviceLatency latency,
                     FaultBatchConfig config);

  // Charges one faulted page: a reload from remote memory (load) or a dirty
  // writeback to it (store).  Returns the simulated cost of this page.
  Duration OnLoad(PageIndex page) { return Charge(page, /*is_store=*/false); }
  Duration OnStore(PageIndex page) { return Charge(page, /*is_store=*/true); }

  // Flushes a partially-filled batch at end of run and returns the cost of
  // completing its round trip (0 when nothing is pending).
  Duration Drain();

  std::uint64_t round_trips() const { return round_trips_; }
  std::uint64_t rider_pages() const { return rider_pages_; }
  const FaultBatchConfig& config() const { return config_; }

 private:
  struct PendingPage {
    PageIndex page = 0;
    bool is_store = false;
  };

  Duration Charge(PageIndex page, bool is_store);
  Duration FullCost(bool is_store) const {
    return is_store ? latency_.write : latency_.read;
  }
  Duration StreamCost(bool is_store) const {
    return is_store ? stream_write_ : stream_read_;
  }
  // Serialises the pending pages into a ring slot: one round trip.
  void Flush();

  rdma::ClientRing* ring_;
  DeviceLatency latency_;
  FaultBatchConfig config_;
  // Precomputed truncated stream costs so every charge is integer-exact.
  Duration stream_read_ = 0;
  Duration stream_write_ = 0;
  std::vector<PendingPage> pending_;  // capacity reused across flushes
  std::uint64_t round_trips_ = 0;
  std::uint64_t rider_pages_ = 0;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_FAULT_BATCH_H_
