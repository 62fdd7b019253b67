#include "src/hv/pager.h"

#include <cassert>

namespace zombie::hv {

HostPager::HostPager(std::uint64_t guest_pages, std::uint64_t local_frames,
                     std::unique_ptr<ReplacementPolicy> policy, PageBackend* backend,
                     PagingParams params, double writeback_amplification)
    : table_(guest_pages),
      local_frames_(local_frames),
      free_frames_(local_frames),
      policy_(std::move(policy)),
      backend_(backend),
      params_(params),
      writeback_amplification_(writeback_amplification) {
  assert(local_frames_ > 0 && "pager needs at least one machine frame");
  policy_->Reserve(guest_pages);
  backend_latency_ = backend_->fixed_latency();
}

template <typename Policy>
Result<Duration> HostPager::EvictOne(Policy& policy) {
  const VictimChoice choice = policy.PickVictim(table_);
  stats_.policy_cycles += choice.cycles;
  Duration cost = CyclesToDuration(choice.cycles);

  PageTableEntry& victim = table_.at(choice.page);
  assert(victim.present);
  if (writeback_amplification_ != 1.0) [[unlikely]] {
    auto stores = AmplifiedWritebacks(choice.page, victim.dirty);
    if (!stores.ok()) {
      policy.OnPageIn(choice.page);  // still resident: keep it evictable
      return stores;
    }
    cost += stores.value();
    victim.dirty = false;
  } else if (victim.dirty) {
    // Transfer the content of the local frame to the backend.
    if (batcher_ != nullptr) {
      cost += batcher_->OnStore();
    } else if (backend_latency_ != nullptr) {
      cost += backend_latency_->write;
    } else {
      auto store = backend_->StorePage(choice.page);
      if (!store.ok()) {
        policy.OnPageIn(choice.page);  // still resident: keep it evictable
        return store;
      }
      cost += store.value();
    }
    victim.dirty = false;
    ++stats_.writebacks;
  }
  victim.present = false;
  victim.swapped = true;  // content now lives in the backend (or was clean
                          // there already)
  victim.frame = kNoFrame;
  ++free_frames_;
  ++stats_.evictions;
  return cost;
}

Result<Duration> HostPager::AmplifiedWritebacks(PageIndex page, bool dirty) {
  // A dirty eviction owes writeback_amplification_ stores; the fraction
  // carries over to later evictions.  A failed store leaves the unpaid part
  // of the debt for the next eviction, as the guest retries the flush.
  double writes = dirty ? 1.0 : 0.0;
  if (dirty) {
    writes += writeback_amplification_ - 1.0;
  }
  amplification_debt_ += writes;
  Duration cost = 0;
  while (amplification_debt_ >= 1.0) {
    if (batcher_ != nullptr) {
      cost += batcher_->OnStore();
    } else if (backend_latency_ != nullptr) {
      cost += backend_latency_->write;
    } else {
      auto store = backend_->StorePage(page);
      if (!store.ok()) {
        return store;
      }
      cost += store.value();
    }
    ++stats_.writebacks;
    amplification_debt_ -= 1.0;
  }
  return cost;
}

template <typename Policy>
Result<Duration> HostPager::FaultIn(PageTableEntry& entry, PageIndex page, Policy& policy) {
  ++stats_.faults;
  Duration cost = params_.fault_trap;

  if (free_frames_ == 0) {
    auto evict_cost = EvictOne(policy);
    if (!evict_cost.ok()) {
      return evict_cost;
    }
    cost += evict_cost.value();
  }
  assert(free_frames_ > 0);

  if (entry.swapped) {
    // Reload the page from the backend into the fresh local frame.
    if (batcher_ != nullptr) {
      cost += batcher_->OnLoad();
    } else if (backend_latency_ != nullptr) {
      cost += backend_latency_->read;
    } else {
      auto load = backend_->LoadPage(page);
      if (!load.ok()) {
        return load;
      }
      cost += load.value();
    }
    entry.swapped = false;
    ++stats_.major_faults;
  }
  // else: first touch — zero-fill, no backend traffic.

  --free_frames_;
  entry.present = true;
  entry.touched = true;
  entry.frame = local_frames_ - free_frames_ - 1;  // synthetic frame id
  cost += params_.map_frame;
  policy.OnPageIn(page);
  return cost;
}

Result<Duration> HostPager::Access(PageIndex page, bool is_write) {
  if (page >= table_.size()) {
    return Status(ErrorCode::kInvalidArgument, "access beyond the VM's reserved memory");
  }
  ++stats_.accesses;
  if (++accesses_since_clear_ >= params_.accessed_clear_period) {
    // The periodic A-bit scan (background, not charged to this access).
    table_.ClearAccessedBits();
    accesses_since_clear_ = 0;
  }

  PageTableEntry& entry = table_.at(page);
  Duration cost = params_.local_access;

  if (!entry.present) {
    auto fault = FaultIn(entry, page, *policy_);
    if (!fault.ok()) {
      return fault;
    }
    cost += fault.value();
  }

  table_.SetAccessed(entry);
  if (is_write) {
    entry.dirty = true;
  }
  stats_.total_cost += cost;
  return cost;
}

template <typename Policy>
Duration HostPager::AccessBatchImpl(std::span<const PageAccess> batch, Policy& policy) {
  // Hot loop of every experiment: identical state machine to Access(), with
  // the per-access counters kept in locals and flushed once per batch.
  const std::uint64_t table_size = table_.size();
  const Duration local_access = params_.local_access;
  const std::uint64_t clear_period = params_.accessed_clear_period;
  std::uint64_t accesses = 0;
  std::uint64_t since_clear = accesses_since_clear_;
  Duration total = 0;
  for (const PageAccess& access : batch) {
    if (access.page >= table_size) {
      continue;  // Access() rejects these before counting them
    }
    ++accesses;
    if (++since_clear >= clear_period) {
      table_.ClearAccessedBits();
      since_clear = 0;
    }
    PageTableEntry& entry = table_.at(access.page);
    Duration cost = local_access;
    if (!entry.present) [[unlikely]] {
      auto fault = FaultIn(entry, access.page, policy);
      if (!fault.ok()) {
        continue;  // failed access contributes no cost (runner semantics)
      }
      cost += fault.value();
    }
    table_.SetAccessed(entry);
    if (access.is_write) {
      entry.dirty = true;
    }
    total += cost;
  }
  accesses_since_clear_ = since_clear;
  stats_.accesses += accesses;
  stats_.total_cost += total;
  return total;
}

Duration HostPager::AccessBatch(std::span<const PageAccess> batch) {
  // Dispatch once per batch to a statically-typed loop; the concrete policy
  // classes are final, so their fault-path calls inline.
  ReplacementPolicy* policy = policy_.get();
  switch (policy->kind()) {
    case PolicyKind::kFifo:
      if (auto* fifo = dynamic_cast<FifoPolicy*>(policy)) {
        return AccessBatchImpl(batch, *fifo);
      }
      break;
    case PolicyKind::kClock:
      if (auto* clock = dynamic_cast<ClockPolicy*>(policy)) {
        return AccessBatchImpl(batch, *clock);
      }
      break;
    case PolicyKind::kMixed:
      if (auto* mixed = dynamic_cast<MixedPolicy*>(policy)) {
        return AccessBatchImpl(batch, *mixed);
      }
      break;
  }
  // Unknown subclass: generic virtual dispatch.
  return AccessBatchImpl(batch, *policy);
}

}  // namespace zombie::hv
