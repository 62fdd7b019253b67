// The global controller's in-memory database of remote buffers.
//
// Supports the allocation-priority queries of Section 4.4: free zombie
// buffers first, then free active buffers, then buffers to reclaim from
// users.  Fully deterministic iteration (ordered by BufferId).
//
// Storage is a flat vector kept sorted by id.  Ids are handed out
// monotonically by the controller, so inserts are amortised appends.  The
// controller sits on the allocation path of every RAM-Ext VM boot, so the
// queries on the allocate / release / placement paths are indexed, and
// every mutator keeps the indexes consistent with the records:
//   - the free count and free bytes are maintained totals (O(1));
//   - a free index per buffer type maps each host to its free ids,
//     ascending, so allocation touches only the buffers it grants;
//   - an id -> position hash map makes Find / Assign / Release O(1).  An
//     Erase or a middle Insert shifts the records after it; rather than
//     re-point that tail on every shift (a wake erases a host's buffers one
//     by one), it only marks the tail stale.  Lookups in a stale tail fall
//     back to a binary search over it, and the next Assign or Release
//     re-points it in one pass.
// The queries that still scan every record — BuffersOfHost, BuffersUsedBy,
// ReclaimOrderForHost, AllocatedCountOfHost and TotalBytes — run only on
// wake, lease expiry, retire and verification paths.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_
#define ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

class BufferDb {
 public:
  // host -> that host's free buffer ids of one type, ascending.  Hosts with
  // no free buffer of the type have no entry.
  using FreeIndex = std::map<ServerId, std::vector<BufferId>>;

  // Inserts a record; id must be fresh.
  [[nodiscard]] Status Insert(const BufferRecord& record);
  [[nodiscard]] Status Erase(BufferId id);
  std::optional<BufferRecord> Find(BufferId id) const;

  // Marks a free buffer as used by `user`.
  [[nodiscard]] Status Assign(BufferId id, ServerId user);
  // Returns a buffer to the free pool.
  [[nodiscard]] Status Release(BufferId id);
  // Flips the type of all buffers of `host` (zombie <-> active) when the
  // host changes power state without reclaiming.
  void RetypeHost(ServerId host, BufferType type);

  // The free index of one buffer type (hosts ascending, ids ascending).
  const FreeIndex& FreeByHost(BufferType type) const {
    return free_by_host_[static_cast<std::size_t>(type)];
  }

  // Queries (all results ordered by id).
  std::vector<BufferRecord> BuffersOfHost(ServerId host) const;
  std::vector<BufferRecord> BuffersUsedBy(ServerId user) const;
  // Free buffers of `host` first, then used ones — the reclaim order of
  // Section 4.3 ("It first uses unallocated buffers and then chooses
  // buffers allocated to other servers").
  std::vector<BufferRecord> ReclaimOrderForHost(ServerId host) const;

  std::size_t size() const { return records_.size(); }
  std::size_t free_count() const { return free_count_; }
  Bytes FreeBytes() const { return free_bytes_; }
  Bytes TotalBytes() const;

  // Number of *allocated* buffers served by `host` (the LRU-zombie metric:
  // Neat prefers waking the zombie with the fewest shared buffers).
  std::size_t AllocatedCountOfHost(ServerId host) const;

  // Snapshot / replace, used by controller mirroring.
  std::vector<BufferRecord> Snapshot() const;
  void Load(const std::vector<BufferRecord>& records);

  // Direct read access to the id-sorted records (deterministic iteration).
  const std::vector<BufferRecord>& records() const { return records_; }

 private:
  // Index of `id` in records_, if present.
  std::optional<std::size_t> PositionOf(BufferId id) const;
  const BufferRecord* FindRecord(BufferId id) const;
  // Re-points a stale tail first, so mutating lookups stay O(1).
  BufferRecord* FindMutable(BufferId id);
  // Free-pool bookkeeping for one record entering / leaving the pool.
  void AddFree(const BufferRecord& record);
  void RemoveFree(const BufferRecord& record);

  static constexpr std::size_t kAllFresh = static_cast<std::size_t>(-1);

  std::vector<BufferRecord> records_;  // sorted by id
  std::unordered_map<BufferId, std::size_t> position_;  // id -> index in records_
  // position_ is exact for records_[0, stale_from_); entries at or past it
  // may lag behind an Erase or middle Insert (kAllFresh: nothing lags).
  std::size_t stale_from_ = kAllFresh;
  std::array<FreeIndex, 2> free_by_host_;  // indexed by BufferType
  std::size_t free_count_ = 0;
  Bytes free_bytes_ = 0;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_
