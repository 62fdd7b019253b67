#include "src/remotemem/global_controller.h"

#include <algorithm>

namespace zombie::remotemem {

GlobalMemoryController::GlobalMemoryController(ControllerConfig config)
    : config_(config), next_buffer_id_(config.id_base) {}

void GlobalMemoryController::RegisterServer(ServerId server) {
  // "Initially all servers are designated active, and state is updated as
  // they are pushed to Sz" (Section 4.2).
  servers_.Register(server);
  // Registration is mirrored so a promoted secondary knows every server.
  Mirror({MirrorOp::Kind::kServerState, {}, kInvalidBuffer, server, BufferType::kZombie,
          false});
}

void GlobalMemoryController::Restore(const std::vector<BufferRecord>& records,
                                     const ServerStateView& server_states) {
  db_.Load(records);
  servers_ = server_states;
  // Resume the id sequence past every id this controller's stride class has
  // minted.  For the unsharded defaults (base 1, stride 1) this is the
  // classic max_id + 1; a shard skips ids minted by its siblings.
  next_buffer_id_ = config_.id_base;
  for (const auto& rec : records) {
    if (rec.id % config_.id_stride == config_.id_base % config_.id_stride) {
      next_buffer_id_ = std::max(next_buffer_id_, rec.id + config_.id_stride);
    }
  }
}

void GlobalMemoryController::LoadFromReplica(const BufferDb& replica,
                                             const ServerStateView& server_states) {
  Restore(replica.Snapshot(), server_states);
}

bool GlobalMemoryController::IsZombie(ServerId server) const {
  return servers_.IsZombie(server);
}

std::vector<ServerId> GlobalMemoryController::ZombieList() const { return servers_.Zombies(); }

void GlobalMemoryController::Mirror(const MirrorOp& op) {
  if (mirror_ != nullptr) {
    mirror_->ApplyMirrored(op);
  }
}

Result<std::vector<BufferId>> GlobalMemoryController::InsertGrants(
    ServerId host, const std::vector<BufferGrant>& buffers, BufferType type) {
  if (!servers_.Contains(host)) {
    return Status(ErrorCode::kNotFound, "unregistered host");
  }
  std::vector<BufferId> ids;
  ids.reserve(buffers.size());
  Bytes offset = 0;
  for (const auto& grant : buffers) {
    if (grant.size != config_.buff_size) {
      return Status(ErrorCode::kInvalidArgument,
                    "buffer size violates rack-uniform BUFF_SIZE");
    }
    BufferRecord rec;
    rec.id = next_buffer_id_;
    next_buffer_id_ += config_.id_stride;
    rec.offset = offset;
    offset += grant.size;
    rec.size = grant.size;
    rec.type = type;
    rec.host = host;
    rec.user = kNilServer;
    rec.rkey = grant.rkey;
    Status st = db_.Insert(rec);
    if (!st.ok()) {
      return st;
    }
    Mirror({MirrorOp::Kind::kInsert, rec, rec.id, host, type, false});
    ids.push_back(rec.id);
  }
  return ids;
}

Result<std::vector<BufferId>> GlobalMemoryController::GsGotoZombie(
    ServerId host, const std::vector<BufferGrant>& buffers) {
  if (!servers_.Contains(host)) {
    return Status(ErrorCode::kNotFound, "unregistered host");
  }
  // Any slack the host was lending while active becomes zombie memory.
  db_.RetypeHost(host, BufferType::kZombie);
  Mirror({MirrorOp::Kind::kRetypeHost, {}, kInvalidBuffer, host, BufferType::kZombie, false});
  auto ids = InsertGrants(host, buffers, BufferType::kZombie);
  if (!ids.ok()) {
    return ids;
  }
  servers_.SetZombie(host, true);
  Mirror({MirrorOp::Kind::kServerState, {}, kInvalidBuffer, host, BufferType::kZombie, true});
  return ids;
}

Result<std::vector<BufferId>> GlobalMemoryController::DelegateActiveBuffers(
    ServerId host, const std::vector<BufferGrant>& buffers) {
  if (IsZombie(host)) {
    return Status(ErrorCode::kFailedPrecondition, "zombie host cannot lend as active");
  }
  return InsertGrants(host, buffers, BufferType::kActive);
}

Result<std::vector<BufferId>> GlobalMemoryController::GsReclaim(ServerId host,
                                                                std::size_t nb_buffers) {
  if (!servers_.Contains(host)) {
    return Status(ErrorCode::kNotFound, "unregistered host");
  }
  const std::vector<BufferRecord> candidates = db_.ReclaimOrderForHost(host);
  if (candidates.size() < nb_buffers) {
    return Status(ErrorCode::kInvalidArgument,
                  "host asked to reclaim more buffers than it delegated");
  }
  std::vector<BufferId> reclaimed;
  reclaimed.reserve(nb_buffers);
  // Batch the US_reclaim notifications per user server (users ascending,
  // ids in reclaim order within a user — the old per-user map's order).
  std::vector<std::pair<ServerId, BufferId>> per_user;
  per_user.reserve(nb_buffers);
  for (std::size_t i = 0; i < nb_buffers; ++i) {
    const BufferRecord& rec = candidates[i];
    if (rec.user != kNilServer) {
      per_user.emplace_back(rec.user, rec.id);
    }
    reclaimed.push_back(rec.id);
  }
  if (agents_ != nullptr && !per_user.empty()) {
    std::stable_sort(per_user.begin(), per_user.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    // US_reclaim "only informs the corresponding remote-mem-mgrs that
    // buff_IDs are no longer available" — the user migrates its backup
    // copies, we don't wait for it.  All notifications are sent before any
    // buffer is erased, so a notification failure leaves the database
    // untouched and the error can name exactly which buffers it covers.
    std::string failures;
    std::vector<BufferId> batch;
    for (std::size_t i = 0; i < per_user.size();) {
      const ServerId user = per_user[i].first;
      batch.clear();
      for (; i < per_user.size() && per_user[i].first == user; ++i) {
        batch.push_back(per_user[i].second);
      }
      Status st = agents_->ReclaimFromUser(user, batch);
      if (!st.ok()) {
        if (!failures.empty()) {
          failures += "; ";
        }
        failures += "US_reclaim failed for user " + std::to_string(user) + " (buffers";
        for (BufferId id : batch) {
          failures += " " + std::to_string(id);
        }
        failures += "): " + st.message();
      }
    }
    if (!failures.empty()) {
      return Status(ErrorCode::kUnavailable, failures);
    }
  }
  for (BufferId id : reclaimed) {
    (void)db_.Erase(id);
    Mirror({MirrorOp::Kind::kErase, {}, id, host, BufferType::kZombie, false});
  }
  // A host reclaiming memory is waking up.
  servers_.SetZombie(host, false);
  Mirror({MirrorOp::Kind::kServerState, {}, kInvalidBuffer, host, BufferType::kZombie, false});
  return reclaimed;
}

std::vector<BufferGrant> GlobalMemoryController::TakeFreeOfType(ServerId user,
                                                                std::size_t want,
                                                                BufferType type) {
  std::vector<BufferGrant> grants;
  grants.reserve(want);
  // Within a type, buffers are taken round-robin across hosts: "the memSize
  // allocation is backed by memory from multiple remote servers.  This
  // approach minimizes the performance impact caused by a remote server
  // failure."
  //
  // Free records arrive sorted by id; regrouping them by host (hosts
  // ascending, ids ascending within a host) reproduces the old
  // map<ServerId, vector>'s iteration order with two flat passes.
  std::vector<BufferRecord> free_records = db_.FreeBuffers(type);
  std::stable_sort(free_records.begin(), free_records.end(),
                   [](const BufferRecord& a, const BufferRecord& b) {
                     return a.host < b.host;
                   });
  std::vector<std::pair<std::size_t, std::size_t>> groups;  // [begin, end) per host
  for (std::size_t i = 0; i < free_records.size();) {
    std::size_t j = i;
    while (j < free_records.size() && free_records[j].host == free_records[i].host) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
  }
  std::vector<std::size_t> cursors(groups.size(), 0);
  bool took_any = true;
  while (grants.size() < want && took_any) {
    took_any = false;
    for (std::size_t g = 0; g < groups.size() && grants.size() < want; ++g) {
      const auto [begin, end] = groups[g];
      std::size_t& pos = cursors[g];
      if (begin + pos >= end) {
        continue;
      }
      const BufferRecord& rec = free_records[begin + pos];
      ++pos;
      (void)db_.Assign(rec.id, user);
      Mirror({MirrorOp::Kind::kAssign, {}, rec.id, user, rec.type, false});
      grants.push_back({rec.id, rec.rkey, rec.size, rec.host, rec.type});
      took_any = true;
    }
  }
  return grants;
}

Status GlobalMemoryController::GsRelease(ServerId user, const std::vector<BufferId>& buffers) {
  for (BufferId id : buffers) {
    auto rec = db_.Find(id);
    if (!rec.has_value()) {
      continue;  // already reclaimed by its host — nothing to release
    }
    if (rec->user != user) {
      return Status(ErrorCode::kNotFound, "buffer not held by user");
    }
    (void)db_.Release(id);
    Mirror({MirrorOp::Kind::kRelease, {}, id, user, rec->type, false});
  }
  return Status::Ok();
}

Status GlobalMemoryController::RetireZombie(ServerId host) {
  if (!IsZombie(host)) {
    return Status(ErrorCode::kFailedPrecondition, "host is not a zombie");
  }
  if (db_.AllocatedCountOfHost(host) > 0) {
    return Status(ErrorCode::kConflict, "zombie still serves allocated buffers");
  }
  for (const auto& rec : db_.BuffersOfHost(host)) {
    (void)db_.Erase(rec.id);
    Mirror({MirrorOp::Kind::kErase, {}, rec.id, host, BufferType::kZombie, false});
  }
  return Status::Ok();
}

std::vector<BufferId> GlobalMemoryController::DropHostBuffers(ServerId host) {
  std::vector<BufferId> dropped;
  for (const auto& rec : db_.BuffersOfHost(host)) {
    dropped.push_back(rec.id);
  }
  for (BufferId id : dropped) {
    (void)db_.Erase(id);
    Mirror({MirrorOp::Kind::kErase, {}, id, host, BufferType::kZombie, false});
  }
  if (servers_.Contains(host) && servers_.IsZombie(host)) {
    servers_.SetZombie(host, false);
    Mirror({MirrorOp::Kind::kServerState, {}, kInvalidBuffer, host, BufferType::kZombie,
            false});
  }
  return dropped;
}

std::vector<BufferId> GlobalMemoryController::ReleaseBuffersUsedBy(ServerId user) {
  std::vector<BufferId> released;
  for (const auto& rec : db_.BuffersUsedBy(user)) {
    released.push_back(rec.id);
  }
  for (BufferId id : released) {
    (void)db_.Release(id);
    Mirror({MirrorOp::Kind::kRelease, {}, id, user, BufferType::kZombie, false});
  }
  return released;
}

}  // namespace zombie::remotemem
