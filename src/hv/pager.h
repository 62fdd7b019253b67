// The modified KVM page-fault handler (Section 4.5) — hypervisor paging
// with remote physical memory (RAM Ext).
//
// "When a page fault is caused by a VM attempt to modify a guest page table,
// if a physical frame is available (free), the handler follows the
// traditional code execution path.  Otherwise, it frees a physical frame to
// satisfy the page fault, using a page replacement policy. [...] When the
// page fault is caused by the non-presence of a page, we first check whether
// it is a page sent to a remote memory.  If this is the case, a local page
// is allocated as above and the remote page is reloaded in the local page."
//
// The same state machine models the guest kernel's swapping in Explicit SD
// (see WorkloadRunner::RunExplicitSd): plain Clock on the guest's smaller
// visible RAM, a SplitDriverBackend in front of the swap device, and
// amplified writebacks.
#ifndef ZOMBIELAND_SRC_HV_PAGER_H_
#define ZOMBIELAND_SRC_HV_PAGER_H_

#include <cstdint>
#include <memory>
#include <span>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/hv/fault_batch.h"
#include "src/hv/page_table.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"

namespace zombie::hv {

struct PagerStats {
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;          // all page faults
  std::uint64_t major_faults = 0;    // faults that reloaded from the backend
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;      // evictions of dirty pages (backend stores)
  Cycles policy_cycles = 0;          // total cycles inside PickVictim
  Duration total_cost = 0;           // simulated time of all accesses

  double FaultRate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(faults) / static_cast<double>(accesses);
  }
  Cycles PolicyCyclesPerFault() const {
    return faults == 0 ? 0 : policy_cycles / static_cast<Cycles>(faults);
  }
};

// One VM's paging state under the hypervisor.
class HostPager {
 public:
  // `guest_pages`  — the VM's reserved memory (VMMemSize), in pages.
  // `local_frames` — machine frames the host dedicates (LocalMemSize).
  // `backend`      — where excess pages go (remote extent, device, ...).
  // `writeback_amplification` — backend stores per dirty eviction; above 1.0
  // it models the guest kernel's proactive flushes of nearby dirty pages
  // (Explicit SD), each extra store counted in stats().writebacks.
  HostPager(std::uint64_t guest_pages, std::uint64_t local_frames,
            std::unique_ptr<ReplacementPolicy> policy, PageBackend* backend,
            PagingParams params = {}, double writeback_amplification = 1.0);

  // One guest access to `page`.  Returns the simulated cost of the access
  // including any fault handling, and accumulates it into stats().
  [[nodiscard]] Result<Duration> Access(PageIndex page, bool is_write);

  // Batched accesses: applies exactly the Access() state machine to every
  // element and returns the summed simulated cost.  Out-of-range or
  // backend-failing accesses contribute 0 cost and keep going (the workload
  // runners' semantics).  Stats and simulated results are bit-identical to
  // calling Access() element by element; the batch form exists so the hot
  // loop amortises call overhead and keeps counters in registers.
  Duration AccessBatch(std::span<const PageAccess> batch);

  const PagerStats& stats() const { return stats_; }

  const GuestPageTable& table() const { return table_; }
  std::uint64_t free_frames() const { return free_frames_; }
  ReplacementPolicy& policy() { return *policy_; }

  // Routes backend traffic (reloads, dirty writebacks) through a per-lane
  // remote-fault batcher instead of charging the backend per page.  Borrowed,
  // never owned; null restores the per-page path.  With batch_pages == 1 the
  // charged costs are bit-identical to the unbatched path.
  void set_fault_batcher(RemoteFaultBatcher* batcher) { batcher_ = batcher; }

 private:
  // Frees one machine frame via the replacement policy.  Returns its cost.
  // Templated on the concrete policy type so AccessBatch dispatches the
  // PickVictim/OnPageIn calls statically (the policy classes are final, so
  // the compiler devirtualises and inlines them into the fault path).
  template <typename Policy>
  [[nodiscard]] Result<Duration> EvictOne(Policy& policy);
  // The amplified-writeback stores of one eviction (writeback_amplification
  // != 1.0 only); kept out of line so the RAM Ext fault path stays lean.
  [[nodiscard, gnu::cold, gnu::noinline]] Result<Duration> AmplifiedWritebacks(PageIndex page,
                                                                             bool dirty);
  // The page-fault slow path: evict if needed, reload if swapped, map.
  // Returns the extra cost beyond the resident-access cost.
  template <typename Policy>
  [[nodiscard]] Result<Duration> FaultIn(PageTableEntry& entry, PageIndex page, Policy& policy);
  template <typename Policy>
  Duration AccessBatchImpl(std::span<const PageAccess> batch, Policy& policy);

  GuestPageTable table_;
  std::uint64_t local_frames_;
  std::uint64_t free_frames_;
  std::unique_ptr<ReplacementPolicy> policy_;
  PageBackend* backend_;
  // Cached backend->fixed_latency(): non-null when the backend is a plain
  // fixed-cost device, letting the fault path skip the virtual dispatch.
  const DeviceLatency* backend_latency_ = nullptr;
  RemoteFaultBatcher* batcher_ = nullptr;
  PagingParams params_;
  double writeback_amplification_;
  // Fractional stores owed by amplified evictions, paid a whole page at a time.
  double amplification_debt_ = 0.0;
  PagerStats stats_;
  std::uint64_t accesses_since_clear_ = 0;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_PAGER_H_
