// RDMA verbs over the simulated fabric: registered memory regions and
// one-sided READ/WRITE.
//
// Data really moves: a MemoryRegion owns bytes, and READ/WRITE copy between
// local and remote regions, so higher layers (hypervisor paging, swap
// devices) can verify page contents end-to-end.  Every verb returns the
// simulated cost so callers charge their CostAccumulator.
#ifndef ZOMBIELAND_SRC_RDMA_VERBS_H_
#define ZOMBIELAND_SRC_RDMA_VERBS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/rdma/fabric.h"

namespace zombie::rdma {

using RKey = std::uint64_t;
inline constexpr RKey kInvalidRKey = 0;

// Access flags for a registered region.
struct MrAccess {
  bool remote_read = true;
  bool remote_write = true;
  // When false the region carries no backing bytes: operations are priced
  // and counted but no data moves.  Large-scale simulations register
  // accounting-only regions so a 16 GiB zombie pool costs nothing to model.
  bool materialize = true;
};

// A registered memory region: an rkey plus (optionally) owned bytes.
class MemoryRegion {
 public:
  MemoryRegion(RKey rkey, NodeId owner, Bytes size, MrAccess access)
      : rkey_(rkey),
        owner_(owner),
        access_(access),
        size_(size),
        bytes_(access.materialize ? size : 0, std::byte{0}) {}

  RKey rkey() const { return rkey_; }
  NodeId owner() const { return owner_; }
  Bytes size() const { return size_; }
  const MrAccess& access() const { return access_; }
  bool materialized() const { return access_.materialize; }

  std::span<std::byte> bytes() { return bytes_; }
  std::span<const std::byte> bytes() const { return bytes_; }

 private:
  RKey rkey_;
  NodeId owner_;
  MrAccess access_;
  Bytes size_;
  std::vector<std::byte> bytes_;
};

// The verbs "device": registers MRs and executes one-sided operations.  One
// instance per fabric; nodes share it (like a subnet-wide address space of
// rkeys, which is how the rack protocol hands out buffer identities).
class Verbs {
 public:
  explicit Verbs(Fabric* fabric) : fabric_(fabric) {}

  // Registers `size` bytes on `owner`.  Returns the region's rkey.
  [[nodiscard]] Result<RKey> RegisterRegion(NodeId owner, Bytes size, MrAccess access = {});
  [[nodiscard]] Status DeregisterRegion(RKey rkey);

  MemoryRegion* FindRegion(RKey rkey);
  const MemoryRegion* FindRegion(RKey rkey) const;

  // One-sided READ: copies [remote_offset, +len) of the remote region into
  // `dst`.  `initiator` must have a live CPU; the region's owner only needs
  // powered memory (the zombie property).  Returns the simulated cost.
  [[nodiscard]] Result<Duration> Read(NodeId initiator, RKey rkey, Bytes remote_offset,
                        std::span<std::byte> dst);

  // One-sided WRITE: copies `src` into the remote region at remote_offset.
  [[nodiscard]] Result<Duration> Write(NodeId initiator, RKey rkey, Bytes remote_offset,
                         std::span<const std::byte> src);

 private:
  [[nodiscard]] Result<Duration> CheckOneSided(NodeId initiator, const MemoryRegion& mr, Bytes offset,
                                 Bytes len, bool is_write) const;

  Fabric* fabric_;
  std::unordered_map<RKey, std::unique_ptr<MemoryRegion>> regions_;
  RKey next_rkey_ = 1;
};

}  // namespace zombie::rdma

#endif  // ZOMBIELAND_SRC_RDMA_VERBS_H_
