#include "src/remotemem/secondary_controller.h"

namespace zombie::remotemem {

void SecondaryController::ApplyMirrored(const MirrorOp& op) {
  ++mirrored_ops_;
  switch (op.kind) {
    case MirrorOp::Kind::kInsert:
      (void)replica_.Insert(op.record);
      servers_.Register(op.record.host);
      break;
    case MirrorOp::Kind::kErase:
      (void)replica_.EraseAll(op.buffers);
      break;
    case MirrorOp::Kind::kAssign:
      (void)replica_.AssignAll(op.buffers, op.server);
      break;
    case MirrorOp::Kind::kRelease:
      (void)replica_.ReleaseHeld(op.buffers, op.server);
      break;
    case MirrorOp::Kind::kRetypeHost:
      replica_.RetypeHost(op.server, op.type);
      break;
    case MirrorOp::Kind::kServerState:
      servers_.Upsert(op.server, op.is_zombie);
      break;
  }
}

bool SecondaryController::IsZombieReplica(ServerId server) const {
  return servers_.IsZombie(server);
}

void SecondaryController::ObserveHeartbeat(std::uint64_t seq) {
  if (seq > last_seen_seq_) {
    last_seen_seq_ = seq;
  }
}

bool SecondaryController::MonitorTick() {
  if (failed_over_) {
    return false;
  }
  if (last_seen_seq_ > seq_at_last_tick_) {
    consecutive_misses_ = 0;
  } else {
    ++consecutive_misses_;
  }
  seq_at_last_tick_ = last_seen_seq_;
  if (consecutive_misses_ >= config_.missed_beats_for_failover) {
    failed_over_ = true;
    return true;
  }
  return false;
}

std::unique_ptr<GlobalMemoryController> SecondaryController::Promote(ControllerConfig config) {
  auto controller = std::make_unique<GlobalMemoryController>(config);
  controller->LoadFromReplica(replica_, servers_);
  return controller;
}

}  // namespace zombie::remotemem
