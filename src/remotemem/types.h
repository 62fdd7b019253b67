// Shared identifiers and buffer descriptors of the rack-level remote-memory
// protocol (Section 4.3: "Each remote buffer is characterized by an
// identifier, offset, size, its type (active/zombie), the host serving the
// buffer, and the server currently using this buffer").
#ifndef ZOMBIELAND_SRC_REMOTEMEM_TYPES_H_
#define ZOMBIELAND_SRC_REMOTEMEM_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/rdma/verbs.h"

namespace zombie::remotemem {

using ServerId = std::uint32_t;
inline constexpr ServerId kNilServer = 0;

using BufferId = std::uint64_t;
inline constexpr BufferId kInvalidBuffer = 0;

// Rack-uniform remote buffer granularity ("Their size (noted BUFF_SIZE) is
// uniform across the entire rack").  Default 64 MiB; configurable rack-wide.
inline constexpr Bytes kDefaultBuffSize = 64 * kMiB;

enum class BufferType : std::uint8_t {
  kZombie = 0,  // served by a server in Sz
  kActive = 1,  // served by an S0 server's slack memory
};

std::string_view BufferTypeName(BufferType t);

// A buffer as tracked by the global controller's in-memory database.
struct BufferRecord {
  BufferId id = kInvalidBuffer;
  Bytes offset = 0;            // offset within the host's delegated range
  Bytes size = 0;              // == rack BUFF_SIZE
  BufferType type = BufferType::kZombie;
  ServerId host = kNilServer;  // server whose DRAM backs the buffer
  ServerId user = kNilServer;  // server currently using it (nil = free)
  rdma::RKey rkey = rdma::kInvalidRKey;  // RDMA handle for one-sided access
};

// What an allocation hands to a user server.
struct BufferGrant {
  BufferId id = kInvalidBuffer;
  rdma::RKey rkey = rdma::kInvalidRKey;
  Bytes size = 0;
  ServerId host = kNilServer;
  BufferType type = BufferType::kZombie;
};

// Which registered servers are currently zombies (Sz).  One shared helper
// for the global controller and the secondary's replica — previously both
// kept their own copy-pasted std::map<ServerId, bool>.  Flat storage sorted
// by ServerId: iteration order matches the old map exactly, so allocator
// escalation order and zombie listings are unchanged.
class ServerStateView {
 public:
  struct Entry {
    ServerId server = kNilServer;
    bool is_zombie = false;
  };

  // Registers `server` as active if unknown; returns true if inserted.
  bool Register(ServerId server) {
    auto it = LowerBound(server);
    if (it != entries_.end() && it->server == server) {
      return false;
    }
    entries_.insert(it, {server, false});
    return true;
  }

  // Registers if needed and sets the zombie flag.
  void Upsert(ServerId server, bool is_zombie) {
    auto it = LowerBound(server);
    if (it != entries_.end() && it->server == server) {
      it->is_zombie = is_zombie;
    } else {
      entries_.insert(it, {server, is_zombie});
    }
  }

  bool Contains(ServerId server) const { return FindEntry(server) != nullptr; }

  bool IsZombie(ServerId server) const {
    const Entry* entry = FindEntry(server);
    return entry != nullptr && entry->is_zombie;
  }

  // Sets the flag of a known server; returns false if unregistered.
  bool SetZombie(ServerId server, bool is_zombie) {
    const Entry* entry = FindEntry(server);
    if (entry == nullptr) {
      return false;
    }
    const_cast<Entry*>(entry)->is_zombie = is_zombie;
    return true;
  }

  std::vector<ServerId> Zombies() const {
    std::vector<ServerId> out;
    for (const Entry& entry : entries_) {
      if (entry.is_zombie) {
        out.push_back(entry.server);
      }
    }
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  // Sorted by ServerId — deterministic iteration for allocator loops.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry>::iterator LowerBound(ServerId server) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), server,
        [](const Entry& entry, ServerId id) { return entry.server < id; });
  }
  const Entry* FindEntry(ServerId server) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), server,
        [](const Entry& entry, ServerId id) { return entry.server < id; });
    if (it == entries_.end() || it->server != server) {
      return nullptr;
    }
    return &*it;
  }

  std::vector<Entry> entries_;  // sorted by server id
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_TYPES_H_
