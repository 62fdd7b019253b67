// The per-shard Global Memory Controller store (global-mem-ctr, Section 4).
//
// One instance backs one shard of the ShardedControlPlane (sharded_plane.h),
// which is the only implementation of the GS_* allocation policy.  The
// controller owns the shard's buffer database and server-state view: it
// registers delegated buffers (GS_goto_zombie / active slack), hands out
// free buffers of one type on the plane's behalf, reclaims buffers for
// waking zombies, releases and drops buffers, and mirrors every mutating
// operation to the shard's secondary controller.  It makes no allocation
// decisions of its own: priority (zombie memory first), the all-or-nothing
// RAM-Ext guarantee and AS_get_free_mem escalation live in the plane.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_GLOBAL_CONTROLLER_H_
#define ZOMBIELAND_SRC_REMOTEMEM_GLOBAL_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {

// A mutating operation, as mirrored to the secondary controller.  One GS_*
// call is one op: a batch op carries every id the primary changed, and the
// secondary applies it with the same BufferDb batch call.
struct MirrorOp {
  enum class Kind : std::uint8_t {
    kInsert,
    kErase,
    kAssign,
    kRelease,
    kRetypeHost,
    kServerState,
  } kind;
  // kInsert: the new record.
  BufferRecord record = {};
  // kErase/kAssign/kRelease: the ids, in the order the primary applied them.
  // The span points into the primary's own list and is valid only for the
  // duration of ApplyMirrored; a sink that keeps the op must copy it.
  std::span<const BufferId> buffers = {};
  // kAssign: the new user; kRelease: the holder the ids were released from;
  // kRetypeHost/kServerState: the server.
  ServerId server = kNilServer;
  BufferType type = BufferType::kZombie;  // kRetypeHost
  bool is_zombie = false;                 // kServerState
};

// Receives mirrored operations (implemented by SecondaryController).
class MirrorSink {
 public:
  virtual ~MirrorSink() = default;
  virtual void ApplyMirrored(const MirrorOp& op) = 0;
};

// How the control plane reaches the per-server agents: the controller sends
// US_reclaim from GS_reclaim; the plane also sends AS_get_free_mem.  The
// rack layer implements this by calling the managers; unit tests implement
// it directly.
class AgentDirectory {
 public:
  virtual ~AgentDirectory() = default;
  // US_reclaim: informs `user`'s remote-mem-mgr that `buffers` are no longer
  // available; the mgr migrates its backup copies elsewhere.
  [[nodiscard]] virtual Status ReclaimFromUser(ServerId user, const std::vector<BufferId>& buffers) = 0;
  // AS_get_free_mem: asks an active server how much slack it can lend, and
  // to delegate it (the agent responds by calling DelegateBuffers).
  virtual Bytes RequestActiveDelegation(ServerId host, Bytes wanted) = 0;
};

struct ControllerConfig {
  Bytes buff_size = kDefaultBuffSize;
  // Id-stride sharding: this controller mints buffer ids id_base,
  // id_base + id_stride, id_base + 2*id_stride, ...  With the defaults
  // (base 1, stride 1, a 1-shard plane) the id sequence is 1, 2, 3...
  // Shard k of an N-shard plane uses base k+1, stride N, so ownership of
  // any id is the deterministic residue (id - 1) % N.
  BufferId id_base = 1;
  BufferId id_stride = 1;
};

class GlobalMemoryController {
 public:
  explicit GlobalMemoryController(ControllerConfig config = {});

  void set_mirror(MirrorSink* sink) { mirror_ = sink; }
  void set_agents(AgentDirectory* agents) { agents_ = agents; }
  const ControllerConfig& config() const { return config_; }

  // ---- Server lifecycle -------------------------------------------------
  // Registers a server as active (initial state; Section 4.2).
  void RegisterServer(ServerId server);
  // Failover entry point (Section 4): rebuilds this controller's full state
  // from the secondary's replica database + server-state view.
  void LoadFromReplica(const BufferDb& replica, const ServerStateView& server_states);
  bool HasServer(ServerId server) const { return servers_.Contains(server); }
  bool IsZombie(ServerId server) const;
  std::vector<ServerId> ZombieList() const;

  // GS_goto_zombie(buffers): the host is about to enter Sz and lends the
  // given buffers.  Buffers previously lent while active flip to zombie
  // type.  Returns the controller-assigned ids, in input order.
  [[nodiscard]] Result<std::vector<BufferId>> GsGotoZombie(
      ServerId host, const std::vector<BufferGrant>& buffers);

  // Active-server delegation (slack lending while in S0).
  [[nodiscard]] Result<std::vector<BufferId>> DelegateActiveBuffers(
      ServerId host, const std::vector<BufferGrant>& buffers);

  // GS_reclaim(nbBuffers): a waking host takes back `nb` of its buffers.
  // Unallocated buffers go first; then allocated ones are reclaimed from
  // their users via US_reclaim.  Returns the reclaimed buffer ids.
  [[nodiscard]] Result<std::vector<BufferId>> GsReclaim(ServerId host, std::size_t nb_buffers);

  // Releases buffers a user no longer needs.
  [[nodiscard]] Status GsRelease(ServerId user, const std::vector<BufferId>& buffers);

  // Takes up to `want` free buffers of one type for `user` (zombie-hosted
  // and active-hosted pools are separate priority classes; the plane calls
  // this per type so cross-shard allocation can honour "zombie memory
  // first" globally, not just within one shard).
  std::vector<BufferGrant> TakeFreeOfType(ServerId user, std::size_t want,
                                          BufferType type);

  // ---- Lease-expiry cleanup (sharded plane) ------------------------------
  // Drops every buffer hosted by `host` (free or allocated) from the pool —
  // the host's lease lapsed, so its memory is unreachable.  Also clears the
  // host's zombie flag.  Returns the dropped buffer ids (users of allocated
  // buffers must have been notified via US_reclaim first).
  std::vector<BufferId> DropHostBuffers(ServerId host);
  // Frees every buffer `user` was consuming (the consumer died; its
  // allocations return to the pool).  Returns the released buffer ids.
  std::vector<BufferId> ReleaseBuffersUsedBy(ServerId user);

  // ---- Introspection -----------------------------------------------------
  const BufferDb& db() const { return db_; }
  Bytes FreeRemoteBytes() const { return db_.FreeBytes(); }
  std::size_t ServerCount() const { return servers_.size(); }

  // Heartbeat payload for the secondary's monitor.
  std::uint64_t BumpHeartbeat() { return ++heartbeat_seq_; }

 private:
  [[nodiscard]] Result<std::vector<BufferId>> InsertGrants(ServerId host,
                                             const std::vector<BufferGrant>& buffers,
                                             BufferType type);
  void Mirror(const MirrorOp& op);
  // Erases `ids` with one batch call and mirrors them as one op.
  void EraseAndMirror(const std::vector<BufferId>& ids);

  ControllerConfig config_;
  BufferDb db_;
  ServerStateView servers_;
  MirrorSink* mirror_ = nullptr;
  AgentDirectory* agents_ = nullptr;
  BufferId next_buffer_id_ = 1;
  std::uint64_t heartbeat_seq_ = 0;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_GLOBAL_CONTROLLER_H_
