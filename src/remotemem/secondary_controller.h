// The Secondary Memory Controller (secondary-ctr, Section 4).
//
// "enforces transparent high availability of the global controller.  It
// monitors the main controller's state (periodic heart beat) and
// synchronously mirrors all operations."
//
// The secondary keeps a full replica of the buffer database by applying the
// primary's mirrored operations, watches heartbeats, and — after
// kMissedBeatsForFailover missed beats — promotes its replica into a fresh
// GlobalMemoryController that takes over.
#ifndef ZOMBIELAND_SRC_REMOTEMEM_SECONDARY_CONTROLLER_H_
#define ZOMBIELAND_SRC_REMOTEMEM_SECONDARY_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/remotemem/global_controller.h"

namespace zombie::remotemem {

// Consecutive missed heartbeats after which the secondary takes over.
inline constexpr int kMissedBeatsForFailover = 3;

class SecondaryController final : public MirrorSink {
 public:
  // `primary` is the mirrored controller's config; its id sequence sizes the
  // replica's lookup table.
  explicit SecondaryController(const ControllerConfig& primary = {})
      : replica_(primary.id_base, primary.id_stride) {}

  // ---- Mirroring ---------------------------------------------------------
  void ApplyMirrored(const MirrorOp& op) override;
  std::uint64_t mirrored_ops() const { return mirrored_ops_; }
  const BufferDb& replica() const { return replica_; }
  bool IsZombieReplica(ServerId server) const;

  // ---- Heartbeat monitoring ----------------------------------------------
  // The primary pushes heartbeats with a monotonically increasing sequence.
  void ObserveHeartbeat(std::uint64_t seq);
  // The monitor process tick: called once per heartbeat period.  Counts a
  // miss if no new heartbeat arrived since the previous tick.  Returns true
  // if this tick triggered failover.
  bool MonitorTick();
  int consecutive_misses() const { return consecutive_misses_; }
  bool failed_over() const { return failed_over_; }

  // Builds the replacement controller from the replica (called on failover,
  // or manually for controlled switchover).  The new controller carries the
  // replica database and server states.
  std::unique_ptr<GlobalMemoryController> Promote(ControllerConfig config = {});

 private:
  BufferDb replica_;
  ServerStateView servers_;
  std::uint64_t mirrored_ops_ = 0;
  std::uint64_t last_seen_seq_ = 0;
  std::uint64_t seq_at_last_tick_ = 0;
  int consecutive_misses_ = 0;
  bool failed_over_ = false;
};

}  // namespace zombie::remotemem

#endif  // ZOMBIELAND_SRC_REMOTEMEM_SECONDARY_CONTROLLER_H_
