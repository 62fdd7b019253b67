// Client-side slots of the paper's RPC-over-RDMA framework (Section 4.1):
// "the clients poll for the RPC results as RDMA inbound operations are
// cheaper than outbound operations."
//
// The data plane's batched remote faults (hv/fault_batch.h) serialise each
// batch into a request slot of a shared ClientRing and read the ack from the
// paired response slot.  PayloadWriter appends little-endian integers into a
// slot payload whose capacity is reused call over call, mirroring how the
// real rings recycle their registered buffers.
#ifndef ZOMBIELAND_SRC_RDMA_RPC_H_
#define ZOMBIELAND_SRC_RDMA_RPC_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace zombie::rdma {

// Wire payloads are byte vectors.
using Payload = std::vector<std::byte>;

// Appends little-endian integers into an external payload (a ring slot).
class PayloadWriter {
 public:
  // Appends into `target`, which must outlive the writer.
  explicit PayloadWriter(Payload* target) : buf_(target) {}

  void PutU64(std::uint64_t v);
  void PutU32(std::uint32_t v);

  // Clears the target buffer but keeps its capacity (steady-state reuse).
  void Reset() { buf_->clear(); }

 private:
  Payload* buf_;
};

// Client side of the ring discipline: a fixed set of request/response slot
// pairs shared by concurrent fault lanes.  Per-vCPU paging shards acquire a
// slot, serialise a batched remote-fault request into it, and release it,
// exactly how the real rx/tx rings hand registered buffers to lanes.  Slot
// payloads keep their capacity across acquisitions, so the steady state is
// allocation-free.
//
// Thread-safety: Acquire/Release use a lock-free bitmask; the payloads of an
// acquired slot are owned by the acquiring thread until Release.
class ClientRing {
 public:
  // Enough slots that a hot loop with up to 8 fault lanes never waits.
  static constexpr std::size_t kSlots = 8;

  struct Slot {
    Payload request;
    Payload response;
  };

  ClientRing() : free_mask_((1u << kSlots) - 1) {}

  ClientRing(const ClientRing&) = delete;
  ClientRing& operator=(const ClientRing&) = delete;

  // Blocks (yield-spin) until a slot is free and returns its index.  The
  // caller owns slot(i) until Release(i).
  std::size_t Acquire();
  // Non-blocking variant; returns false when every slot is held.
  bool TryAcquire(std::size_t* slot);
  void Release(std::size_t slot);

  Slot& slot(std::size_t i) { return slots_[i]; }

  std::uint64_t acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> free_mask_;  // bit i set = slot i free
  std::atomic<std::uint64_t> acquisitions_{0};
  std::array<Slot, kSlots> slots_;
};

}  // namespace zombie::rdma

#endif  // ZOMBIELAND_SRC_RDMA_RPC_H_
