// The Remote Memory Manager agent (remote-mem-mgr, Section 4).
//
// One instance runs on every rack server.  It:
//  * delegates free memory as rack-uniform buffers when its host enters Sz
//    (hooked to the OSPM pre-zombie signal) or lends slack while active;
//  * reclaims buffers when the host wakes;
//  * allocates remote memory on behalf of local consumers (RAM Ext and
//    Explicit SD) and maps logical pages onto granted buffers;
//  * mirrors every remote write asynchronously to local storage (footnote 3)
//    and serves reclaimed pages from that slower path until re-placement.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_MEMORY_MANAGER_H_
#define ZOMBIELAND_SRC_REMOTEMEM_MEMORY_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/result.h"
#include "src/common/sim_clock.h"
#include "src/common/units.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/sharded_plane.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

// Local-storage model used for the asynchronous backup mirror.  Writes are
// async (not charged to the foreground path); reads after a reclaim pay the
// device read latency.
struct LocalStoreParams {
  Duration read_latency = 90 * kMicrosecond;   // SSD-class backup device
  Duration write_latency = 25 * kMicrosecond;  // absorbed by write-behind
};

// A logical run of remote memory composed of granted buffers.  Consumers
// address it by page index; the extent routes each page to the right buffer
// via one-sided verbs and keeps the local backup mirror.
class RemoteExtent {
 public:
  RemoteExtent(rdma::Verbs* verbs, rdma::NodeId local_node, Bytes buff_size,
               LocalStoreParams store = {});

  // Appends granted buffers to the extent.
  void AddGrants(const std::vector<BufferGrant>& grants);

  Bytes capacity() const { return static_cast<Bytes>(buffers_.size()) * buff_size_; }
  std::uint64_t capacity_pages() const { return PagesOf(capacity()); }
  std::size_t buffer_count() const { return buffers_.size(); }
  std::vector<BufferId> buffer_ids() const;

  // Writes one page at `page_index`.  Returns the simulated foreground cost
  // (the async local mirror is free on this path).  `data` may be empty for
  // accounting-only runs.
  [[nodiscard]] Result<Duration> WritePage(std::uint64_t page_index, std::span<const std::byte> data);
  // Reads one page.  Pages whose buffer was reclaimed are served from the
  // local backup at storage latency (the paper's slower path).
  [[nodiscard]] Result<Duration> ReadPage(std::uint64_t page_index, std::span<std::byte> out);

  // Reclaim notification: the given buffers are gone.  Pages they held stay
  // readable via the local mirror.  Returns how many pages were affected.
  std::size_t OnBuffersReclaimed(const std::vector<BufferId>& reclaimed);

  // Re-homes local-mirror-only pages onto freshly granted buffers (called
  // after the manager obtains replacement memory).  Returns pages moved.
  std::size_t RehomeMirroredPages();

  // Diagnostics.
  std::uint64_t remote_reads() const { return remote_reads_; }
  std::uint64_t remote_writes() const { return remote_writes_; }
  std::uint64_t mirror_reads() const { return mirror_reads_; }

 private:
  struct Slot {
    BufferGrant grant;
    bool reclaimed = false;
  };
  // Maps a page index to (buffer slot, offset) — pages stripe across buffers
  // so one server failure only hurts a fraction of the extent.
  struct Location {
    std::size_t slot;
    Bytes offset;
  };
  Location Locate(std::uint64_t page_index) const;

  rdma::Verbs* verbs_;
  rdma::NodeId local_node_;
  Bytes buff_size_;
  LocalStoreParams store_;
  std::vector<Slot> buffers_;
  // Pages written at least once (they exist in the local mirror).
  std::unordered_set<std::uint64_t> mirrored_pages_;
  // Pages whose remote home was reclaimed; they live only in the mirror.
  std::unordered_set<std::uint64_t> mirror_only_pages_;
  std::uint64_t remote_reads_ = 0;
  std::uint64_t remote_writes_ = 0;
  std::uint64_t mirror_reads_ = 0;
};

// The per-server agent.
class RemoteMemoryManager {
 public:
  RemoteMemoryManager(ServerId server, rdma::Verbs* verbs, rdma::NodeId node,
                      ShardedControlPlane* plane);

  ServerId server() const { return server_; }
  rdma::NodeId node() const { return node_; }

  // ---- Delegation / reclaim (host side) ----------------------------------
  // Called on the Sz signal: carves `free_bytes` into BUFF_SIZE buffers,
  // registers MRs and calls GS_goto_zombie.  Returns the number of buffers
  // delegated.  `materialize` = false for accounting-only simulations.
  [[nodiscard]] Result<std::size_t> DelegateOnZombie(Bytes free_bytes, bool materialize = true);
  // Active-server slack lending (AS_get_free_mem response).
  [[nodiscard]] Result<std::size_t> DelegateActive(Bytes free_bytes, bool materialize = true);
  // Called after wake: reclaims `bytes` worth of buffers from the pool and
  // releases their MRs.
  [[nodiscard]] Result<std::size_t> ReclaimOnWake(Bytes bytes);

  // Buffers this host currently has delegated (by id).
  const std::vector<BufferId>& delegated() const { return delegated_; }

  // Drops delegation bookkeeping after the controller retired this host's
  // buffers (surplus-zombie deep sleep): deregisters the memory regions
  // without going through GS_reclaim.
  void ForgetDelegations();

  // ---- Consumption (user side) --------------------------------------------
  // Allocates a RAM-Extension extent of exactly `size` (guaranteed).
  [[nodiscard]] Result<RemoteExtent*> AllocExtension(Bytes size, LocalStoreParams store = {});
  // Allocates a best-effort swap extent; may be smaller than `size`.
  [[nodiscard]] Result<RemoteExtent*> AllocSwap(Bytes size, LocalStoreParams store = {});
  // Grows an existing swap extent by up to `additional` bytes (best-effort,
  // the hourly GS_alloc_swap refresh).  Returns bytes actually added.
  [[nodiscard]] Result<Bytes> GrowSwapExtent(RemoteExtent* extent, Bytes additional);
  // Releases an extent's buffers back to the pool.
  [[nodiscard]] Status ReleaseExtent(RemoteExtent* extent);

  // US_reclaim delivery from the controller.
  void OnReclaimNotice(const std::vector<BufferId>& buffers);

  std::size_t extent_count() const { return extents_.size(); }

 private:
  [[nodiscard]] Result<std::size_t> Delegate(Bytes free_bytes, bool materialize, bool zombie);

  ServerId server_;
  rdma::Verbs* verbs_;
  rdma::NodeId node_;
  ShardedControlPlane* plane_;
  std::vector<BufferId> delegated_;
  std::map<BufferId, rdma::RKey> delegated_rkeys_;
  std::vector<std::unique_ptr<RemoteExtent>> extents_;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_MEMORY_MANAGER_H_
