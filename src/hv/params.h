// Timing constants of the hypervisor paging model.
//
// Values are commodity-hardware magnitudes (3 GHz host, EPT violations in
// the low microseconds, DRAM page touch in the low hundreds of ns).  The
// PagingParams fields are parameters so ablation benches can sweep them; the
// Explicit SD split-driver overhead and the Table-2 swap devices are fixed.
#ifndef ZOMBIELAND_SRC_HV_PARAMS_H_
#define ZOMBIELAND_SRC_HV_PARAMS_H_

#include <cstdint>

#include "src/common/units.h"

namespace zombie::hv {

struct PagingParams {
  // Cost of an in-VM access to a resident 4 KiB page-entry (the
  // micro-benchmark's per-entry read/write including its own work).
  Duration local_access = 150;  // ns

  // VM exit + fault handler entry/exit (EPT violation round trip).
  Duration fault_trap = 2500;  // ns

  // Mapping a frame into the guest (page-table update + TLB shootdown).
  Duration map_frame = 800;  // ns

  // Replacement-policy bookkeeping costs, in CPU cycles (Fig. 8 bottom is
  // reported in cycles).
  Cycles policy_fixed_cycles = 90;        // handler dispatch into the policy
  Cycles fifo_pop_cycles = 45;            // unlinking the FIFO head
  Cycles list_node_cycles = 10;           // walking one list node
  Cycles accessed_check_cycles = 52;      // page-table walk to test/clear A-bit

  // Periodic accessed-bit clearing: every this many guest accesses, all
  // A-bits are wiped (kswapd-style background scan; not charged to faults).
  std::uint64_t accessed_clear_period = 1024;
};

// The split-driver (frontend/backend) overhead of the Explicit SD path, per
// swap I/O on top of the device cost: the guest's block request traverses
// virtio rings and the backend contacts the remote-mem-mgr (Section 4.5).
inline constexpr Duration kSplitDriverOverhead = 7 * kMicrosecond;

// Local swap device models for Table 2.
struct DeviceLatency {
  Duration read = 0;
  Duration write = 0;
};

// Samsung MZ-7PD256 class SATA SSD (the paper's "local fast swap device").
inline constexpr DeviceLatency kLocalSsd{90 * kMicrosecond, 70 * kMicrosecond};
// Seagate ST12000NM0007 class HDD (the paper's "local slow swap device"):
// seek + rotational dominate a 4 KiB random access.
inline constexpr DeviceLatency kLocalHdd{6 * kMillisecond, 4 * kMillisecond};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_PARAMS_H_
