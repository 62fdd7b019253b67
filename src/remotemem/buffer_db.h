// The global controller's in-memory database of remote buffers.
//
// Supports the allocation-priority queries of Section 4.4: free zombie
// buffers first, then free active buffers, then buffers to reclaim from
// users.  Fully deterministic iteration (ordered by BufferId).
//
// Storage is a flat vector kept sorted by id.  Ids are handed out
// monotonically by the controller, so inserts are amortised appends.  The
// controller sits on the allocation path of every RAM-Ext VM boot, so the
// allocate / release / reclaim paths cost what the buffers they touch cost,
// and every mutator keeps the indexes consistent with the records:
//   - the free count and free bytes are maintained totals (O(1));
//   - the free index keeps, for every host seen, its free ids of each buffer
//     type, stored descending: allocation takes a host's lowest ids and a
//     release usually returns low ids, so both pop or push at the back.  The
//     hosts sit in a vector ascending by id (the order PickFree and
//     FreeByHost walk), found through a dense host-id table that, like the
//     id lookup below, covers only ids below twice the hosts seen (plus a
//     small floor), so it is bounded by the hosts seen, not by an id's
//     magnitude; a host outside the table is binary-searched.  FreeByHost
//     presents the index ascending;
//   - the id lookup is a dense table keyed by the id's mint ordinal,
//     (id - id_base) / id_stride (the owning controller's id sequence,
//     ControllerConfig).  It grows only to ordinals below twice the records
//     ever inserted, so its size is bounded by the records minted, not by an
//     id's magnitude; an id outside the table falls back to a binary search
//     over the sorted records.
// Assign, Release and Erase are batch calls over a list of ids (one GS_*
// operation is one call); the per-id forms are one-element batches.  Erase
// compacts the records in one pass and re-points the shifted tail.
// The queries that still scan every record — BuffersOfHost, BuffersUsedBy,
// ReclaimOrderForHost and TotalBytes — run only on wake, lease expiry and
// verification paths.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_
#define ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

class BufferDb {
 public:
  // host -> that host's free buffer ids of one type, ascending.  Hosts with
  // no free buffer of the type have no entry.
  using FreeIndex = std::map<ServerId, std::vector<BufferId>>;

  // `id_base` / `id_stride` describe the id sequence the owner mints; they
  // size the lookup table only and never change a result.
  explicit BufferDb(BufferId id_base = 1, BufferId id_stride = 1);

  // Inserts a record; id must be fresh.
  [[nodiscard]] Status Insert(const BufferRecord& record);
  std::optional<BufferRecord> Find(BufferId id) const;

  // Marks free buffers as used by `user`.  Every id is checked before any
  // changes: an unknown id fails with kNotFound, an allocated (or repeated)
  // one with kConflict, and then nothing changes.
  [[nodiscard]] Status AssignAll(std::span<const BufferId> ids, ServerId user);
  // Returns buffers `holder` uses to the free pool, in order, as GS_release
  // does: an unknown id is skipped (its host already took it back), and the
  // first id not held by `holder` stops the call, leaving the ids before it
  // released.  A free buffer counts as held by kNilServer.  Returns the
  // number of ids consumed: ids.size(), or the index of the stopping id.
  std::size_t ReleaseHeld(std::span<const BufferId> ids, ServerId holder);
  // Drops buffers, compacting the records in one pass.  Every id must name
  // a distinct record, else kNotFound and nothing changes.
  [[nodiscard]] Status EraseAll(std::span<const BufferId> ids);

  // One-element forms of the batch calls.
  [[nodiscard]] Status Assign(BufferId id, ServerId user) { return AssignAll({&id, 1}, user); }
  // Returns a buffer to the free pool, whoever holds it.
  [[nodiscard]] Status Release(BufferId id);
  [[nodiscard]] Status Erase(BufferId id) { return EraseAll({&id, 1}); }

  // Flips the type of all buffers of `host` (zombie <-> active) when the
  // host changes power state without reclaiming.
  void RetypeHost(ServerId host, BufferType type);

  // The free index of one buffer type (hosts ascending, ids ascending).
  FreeIndex FreeByHost(BufferType type) const;
  // Up to `want` free ids of one type, round-robin across hosts: round r
  // takes each host's r-th lowest free id, hosts ascending.
  std::vector<BufferId> PickFree(BufferType type, std::size_t want) const;

  // Queries (all results ordered by id).
  std::vector<BufferRecord> BuffersOfHost(ServerId host) const;
  std::vector<BufferRecord> BuffersUsedBy(ServerId user) const;
  // Free buffers of `host` first, then used ones — the reclaim order of
  // Section 4.3 ("It first uses unallocated buffers and then chooses
  // buffers allocated to other servers").
  std::vector<BufferRecord> ReclaimOrderForHost(ServerId host) const;

  std::size_t size() const { return records_.size(); }
  // Entries of the host lookup table (at most 2 * hosts seen + 64).
  std::size_t host_table_size() const { return host_slot_.size(); }
  std::size_t free_count() const { return free_count_; }
  Bytes FreeBytes() const { return free_bytes_; }
  Bytes TotalBytes() const;

  // Snapshot / replace, used by controller mirroring.
  std::vector<BufferRecord> Snapshot() const;
  void Load(const std::vector<BufferRecord>& records);

  // Direct read access to the id-sorted records (deterministic iteration).
  const std::vector<BufferRecord>& records() const { return records_; }

 private:
  static constexpr std::uint32_t kNoRecord = UINT32_MAX;

  // Mint ordinal of `id`, or SIZE_MAX if `id` is not in the sequence.
  std::size_t OrdinalOf(BufferId id) const;
  // Index of `id` in records_, if present.
  std::optional<std::size_t> PositionOf(BufferId id) const;
  // The table never covers an ordinal at or past this bound.
  std::size_t TableBound() const { return 2 * inserted_ + 64; }
  // Extends the table to cover `ordinal` if the bound allows it.
  void CoverOrdinal(std::size_t ordinal);
  // Re-points the table at records_[from, end).
  void Repoint(std::size_t from);
  // Index of the first entry of free_hosts_ whose host is not below `host`.
  std::size_t HostRank(ServerId host) const;
  // Index of `host` in free_hosts_, or free_hosts_.size() if unseen.
  std::size_t FindHost(ServerId host) const;
  // Index of `host` in free_hosts_, adding an entry for it if unseen.
  std::size_t AddHost(ServerId host);
  // The host table never covers an id at or past this bound.
  std::size_t HostTableBound() const { return 2 * free_hosts_.size() + 64; }
  // Free-pool bookkeeping for one record entering / leaving the pool.
  void AddFree(const BufferRecord& record);
  void RemoveFree(const BufferRecord& record);

  BufferId id_base_;
  BufferId id_stride_;
  std::vector<BufferRecord> records_;  // sorted by id
  // Mint ordinal -> index in records_ (kNoRecord: no such record).  Exact
  // for every ordinal below its size.
  std::vector<std::uint32_t> slot_;
  std::size_t inserted_ = 0;  // records ever inserted or loaded
  struct HostFree {
    ServerId host = kNilServer;
    std::array<std::vector<BufferId>, 2> ids;  // indexed by BufferType, descending
  };
  // Every host with a free buffer since the last Load, ascending by id; a
  // host whose lists empty keeps its entry.
  std::vector<HostFree> free_hosts_;
  // Host id -> index in free_hosts_ (kNoRecord: unseen).  Exact for every
  // id below its size.
  std::vector<std::uint32_t> host_slot_;
  std::size_t free_count_ = 0;
  Bytes free_bytes_ = 0;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_BUFFER_DB_H_
