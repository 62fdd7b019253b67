#include "src/rdma/rpc.h"

#include <bit>
#include <thread>

namespace zombie::rdma {

void PayloadWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void PayloadWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

bool ClientRing::TryAcquire(std::size_t* slot) {
  std::uint32_t mask = free_mask_.load(std::memory_order_acquire);
  while (mask != 0) {
    const int bit = std::countr_zero(mask);
    if (free_mask_.compare_exchange_weak(mask, mask & ~(1u << bit),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      acquisitions_.fetch_add(1, std::memory_order_relaxed);
      *slot = static_cast<std::size_t>(bit);
      return true;
    }
    // mask was reloaded by the failed CAS; retry on the fresh value.
  }
  return false;
}

std::size_t ClientRing::Acquire() {
  std::size_t slot = 0;
  while (!TryAcquire(&slot)) {
    // Every slot is held by another lane.  Fault batches flush quickly, so a
    // yield-spin is cheaper than parking the thread.
    std::this_thread::yield();
  }
  return slot;
}

void ClientRing::Release(std::size_t slot) {
  // The release ordering publishes the slot's payload bytes to the next
  // acquirer (whose successful CAS is an acquire).
  free_mask_.fetch_or(1u << static_cast<std::uint32_t>(slot),
                      std::memory_order_release);
}

}  // namespace zombie::rdma
