#include "src/remotemem/sharded_plane.h"

#include <algorithm>
#include <array>
#include <utility>

namespace zombie::remotemem {

namespace {

std::string ShardDownMessage(std::size_t shard) {
  return "controller shard " + std::to_string(shard) + " is down";
}

// Compares a database's maintained free totals and per-type, per-host free
// index with a scan of its records.  `where` names the database.
Status CheckFreeIndex(const BufferDb& db, const std::string& where) {
  std::size_t free_count = 0;
  Bytes free_bytes = 0;
  std::array<BufferDb::FreeIndex, 2> scan;
  for (const auto& rec : db.records()) {
    if (rec.user == kNilServer) {
      ++free_count;
      free_bytes += rec.size;
      scan[static_cast<std::size_t>(rec.type)][rec.host].push_back(rec.id);
    }
  }
  if (free_count != db.free_count() || free_bytes != db.FreeBytes()) {
    return Status(ErrorCode::kConflict, where + ": free/used accounting diverged");
  }
  for (BufferType type : {BufferType::kZombie, BufferType::kActive}) {
    if (db.FreeByHost(type) != scan[static_cast<std::size_t>(type)]) {
      return Status(ErrorCode::kConflict, where + ": " + std::string(BufferTypeName(type)) +
                                              " free index diverged from the records");
    }
  }
  return Status::Ok();
}

}  // namespace

ShardedControlPlane::ShardedControlPlane(PlaneConfig config) : config_(config) {
  if (config_.shards == 0) {
    config_.shards = 1;
  }
  shards_.resize(config_.shards);
  leases_ = LeaseManager(config_.lease);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = shards_[k];
    shard.primary = std::make_unique<GlobalMemoryController>(ShardControllerConfig(k));
    shard.secondary =
        std::make_unique<SecondaryController>(config_.secondary, ShardControllerConfig(k));
    shard.primary->set_mirror(shard.secondary.get());
  }
}

ControllerConfig ShardedControlPlane::ShardControllerConfig(std::size_t shard) const {
  return ControllerConfig{
      .buff_size = config_.buff_size,
      .id_base = static_cast<BufferId>(shard + 1),
      .id_stride = static_cast<BufferId>(shards_.size()),
  };
}

void ShardedControlPlane::set_agents(AgentDirectory* agents) {
  agents_ = agents;
  for (Shard& shard : shards_) {
    shard.primary->set_agents(agents);
  }
}

void ShardedControlPlane::RegisterServer(ServerId server) {
  auto it = std::lower_bound(registry_.begin(), registry_.end(), server);
  if (it == registry_.end() || *it != server) {
    registry_.insert(it, server);
  }
  for (Shard& shard : shards_) {
    shard.primary->RegisterServer(server);
  }
}

bool ShardedControlPlane::HasServer(ServerId server) const {
  return std::binary_search(registry_.begin(), registry_.end(), server);
}

bool ShardedControlPlane::IsZombie(ServerId server) const {
  // Zombie state lives in the home shard (GS_goto_zombie routes there).  A
  // dead shard's primary is frozen, so reading it stays consistent.
  return shards_[ShardOfHost(server)].primary->IsZombie(server);
}

std::vector<ServerId> ShardedControlPlane::ZombieList() const {
  std::vector<ServerId> zombies;
  for (ServerId server : registry_) {
    if (IsZombie(server)) {
      zombies.push_back(server);
    }
  }
  return zombies;
}

Result<std::vector<BufferId>> ShardedControlPlane::GsGotoZombie(
    ServerId host, const std::vector<BufferGrant>& buffers) {
  Shard& shard = shards_[ShardOfHost(host)];
  if (!shard.alive) {
    return Status(ErrorCode::kUnavailable, ShardDownMessage(ShardOfHost(host)));
  }
  return shard.primary->GsGotoZombie(host, buffers);
}

Result<std::vector<BufferId>> ShardedControlPlane::DelegateActiveBuffers(
    ServerId host, const std::vector<BufferGrant>& buffers) {
  Shard& shard = shards_[ShardOfHost(host)];
  if (!shard.alive) {
    return Status(ErrorCode::kUnavailable, ShardDownMessage(ShardOfHost(host)));
  }
  return shard.primary->DelegateActiveBuffers(host, buffers);
}

Result<std::vector<BufferId>> ShardedControlPlane::GsReclaim(ServerId host,
                                                             std::size_t nb_buffers) {
  Shard& shard = shards_[ShardOfHost(host)];
  if (!shard.alive) {
    return Status(ErrorCode::kUnavailable, ShardDownMessage(ShardOfHost(host)));
  }
  return shard.primary->GsReclaim(host, nb_buffers);
}

std::vector<BufferGrant> ShardedControlPlane::TakeAcross(ServerId user,
                                                         std::size_t want) {
  std::vector<BufferGrant> grants;
  grants.reserve(want);
  const std::size_t n = shards_.size();
  const std::size_t home = ShardOfHost(user);
  // Zombie memory from EVERY shard before any active memory — the paper's
  // allocation priority is global.  Within a type, shards are visited
  // starting at the user's home shard so load spreads deterministically.
  for (BufferType type : {BufferType::kZombie, BufferType::kActive}) {
    for (std::size_t i = 0; i < n && grants.size() < want; ++i) {
      Shard& shard = shards_[(home + i) % n];
      if (!shard.alive) {
        continue;
      }
      auto more = shard.primary->TakeFreeOfType(user, want - grants.size(), type);
      grants.insert(grants.end(), more.begin(), more.end());
    }
  }
  return grants;
}

Result<std::vector<BufferGrant>> ShardedControlPlane::GsAllocExt(ServerId user,
                                                                 Bytes mem_size) {
  if (!HasServer(user)) {
    return Status(ErrorCode::kNotFound, "unregistered user server");
  }
  const std::size_t want =
      static_cast<std::size_t>((mem_size + config_.buff_size - 1) / config_.buff_size);
  std::vector<BufferGrant> grants = TakeAcross(user, want);
  std::string escalation_log;
  if (grants.size() < want && agents_ != nullptr) {
    // AS_get_free_mem(): ask active servers to lend slack.
    const Bytes missing = (want - grants.size()) * config_.buff_size;
    for (ServerId server : registry_) {
      if (grants.size() >= want) {
        break;
      }
      if (IsZombie(server) || server == user) {
        continue;
      }
      const Bytes lent = agents_->RequestActiveDelegation(server, missing);
      if (!escalation_log.empty()) {
        escalation_log += ", ";
      }
      escalation_log += "AS_get_free_mem(host " + std::to_string(server) + ") -> " +
                        std::to_string(lent) + " B";
      auto more = TakeAcross(user, want - grants.size());
      grants.insert(grants.end(), more.begin(), more.end());
    }
  }
  if (grants.size() < want) {
    // All-or-nothing: undo, then fail with the escalation ledger.
    std::string detail = "rack cannot satisfy guaranteed RAM-Ext allocation: wanted " +
                         std::to_string(want) + " buffers, granted " +
                         std::to_string(grants.size());
    if (!escalation_log.empty()) {
      detail += "; " + escalation_log;
    }
    std::vector<BufferId> granted;
    granted.reserve(grants.size());
    for (const auto& g : grants) {
      granted.push_back(g.id);
    }
    (void)GsRelease(user, granted);
    return Status(ErrorCode::kOutOfMemory, detail);
  }
  return grants;
}

Status ShardedControlPlane::GsRelease(ServerId user,
                                      const std::vector<BufferId>& buffers) {
  // One call per run of consecutive ids owned by the same shard, in input
  // order: a failure stops at the same id, with the same ids released
  // before it, as releasing one id at a time would.
  std::vector<BufferId> run;
  for (std::size_t i = 0; i < buffers.size();) {
    const std::size_t k = ShardOfBuffer(buffers[i]);
    Shard& shard = shards_[k];
    if (!shard.alive) {
      return Status(ErrorCode::kUnavailable, ShardDownMessage(k));
    }
    run.clear();
    for (; i < buffers.size() && ShardOfBuffer(buffers[i]) == k; ++i) {
      run.push_back(buffers[i]);
    }
    Status st = shard.primary->GsRelease(user, run);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

Bytes ShardedControlPlane::FreeRemoteBytes() const {
  Bytes total = 0;
  for (const Shard& shard : shards_) {
    total += shard.primary->FreeRemoteBytes();
  }
  return total;
}

std::uint64_t ShardedControlPlane::GrantLease(ServerId host, SimTime now) {
  return leases_.Grant(host, now);
}

std::uint64_t ShardedControlPlane::RenewLease(ServerId host, SimTime now) {
  // Renew-or-re-grant: a host that makes contact after its lease lapsed is
  // re-admitted under a new epoch (its buffers were already dropped).
  return leases_.Touch(host, now);
}

bool ShardedControlPlane::CleanupExpiredHost(ServerId host, ExpiryRecord* record) {
  bool complete = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = shards_[k];
    const BufferDb& db = shard.primary->db();
    if (!shard.alive) {
      // The shard's controller is down; its state is frozen, so defer this
      // shard's share of the cleanup until the shard recovers — unless it
      // holds nothing of the dead host.
      if (!db.BuffersOfHost(host).empty() || !db.BuffersUsedBy(host).empty()) {
        complete = false;
      }
      continue;
    }
    // US_reclaim notices to users of the dead host's buffers, batched per
    // user in ascending order (best-effort: the host is gone either way).
    if (agents_ != nullptr) {
      std::vector<std::pair<ServerId, BufferId>> per_user;
      for (const auto& rec : db.BuffersOfHost(host)) {
        if (rec.user != kNilServer) {
          per_user.emplace_back(rec.user, rec.id);
        }
      }
      std::stable_sort(per_user.begin(), per_user.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<BufferId> batch;
      for (std::size_t i = 0; i < per_user.size();) {
        const ServerId user = per_user[i].first;
        batch.clear();
        for (; i < per_user.size() && per_user[i].first == user; ++i) {
          batch.push_back(per_user[i].second);
        }
        (void)agents_->ReclaimFromUser(user, batch);
      }
    }
    auto dropped = shard.primary->DropHostBuffers(host);
    record->hosted_dropped.insert(record->hosted_dropped.end(), dropped.begin(),
                                  dropped.end());
    auto released = shard.primary->ReleaseBuffersUsedBy(host);
    record->used_released.insert(record->used_released.end(), released.begin(),
                                 released.end());
  }
  return complete;
}

std::vector<ExpiryRecord> ShardedControlPlane::ExpireLeases(SimTime now) {
  std::vector<ServerId> todo = leases_.ExpireDue(now);
  todo.insert(todo.end(), pending_cleanup_.begin(), pending_cleanup_.end());
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  pending_cleanup_.clear();

  std::vector<ExpiryRecord> expired;
  for (ServerId host : todo) {
    if (leases_.IsLive(host, now)) {
      // The host came back (renewed under a new epoch) before its deferred
      // cleanup ran; its remaining state is valid again.
      continue;
    }
    ExpiryRecord record;
    record.host = host;
    const bool complete = CleanupExpiredHost(host, &record);
    if (!complete) {
      pending_cleanup_.push_back(host);
    }
    expired.push_back(std::move(record));
  }
  return expired;
}

void ShardedControlPlane::FailShardPrimary(std::size_t shard) {
  shards_[shard].alive = false;
}

void ShardedControlPlane::ReviveShardPrimary(std::size_t shard) {
  shards_[shard].alive = true;
}

std::vector<std::size_t> ShardedControlPlane::PumpHeartbeats() {
  std::vector<std::size_t> promoted;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = shards_[k];
    if (shard.alive) {
      shard.secondary->ObserveHeartbeat(shard.primary->BumpHeartbeat());
    }
    if (shard.secondary->MonitorTick()) {
      // Missed-beat deadline hit: promote the replica into a fresh primary.
      shard.primary = shard.secondary->Promote(ShardControllerConfig(k));
      shard.primary->set_agents(agents_);
      shard.alive = true;
      promoted.push_back(k);
    }
  }
  return promoted;
}

Status ShardedControlPlane::CheckInvariants() const {
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = shards_[k];
    const BufferDb& db = shard.primary->db();
    const auto& records = db.records();
    BufferId prev = 0;
    for (const auto& rec : records) {
      if (rec.id == kInvalidBuffer || rec.id <= prev) {
        return Status(ErrorCode::kConflict,
                      "shard " + std::to_string(k) + ": buffer ids not strictly ascending");
      }
      prev = rec.id;
      if (ShardOfBuffer(rec.id) != k) {
        return Status(ErrorCode::kConflict,
                      "shard " + std::to_string(k) + ": buffer " + std::to_string(rec.id) +
                          " belongs to shard " + std::to_string(ShardOfBuffer(rec.id)));
      }
    }
    ZOMBIE_RETURN_IF_ERROR(CheckFreeIndex(db, "shard " + std::to_string(k)));
    if (!shard.secondary->failed_over()) {
      ZOMBIE_RETURN_IF_ERROR(
          CheckFreeIndex(shard.secondary->replica(), "shard " + std::to_string(k) + " replica"));
      const auto& replica = shard.secondary->replica().records();
      if (replica.size() != records.size()) {
        return Status(ErrorCode::kConflict,
                      "shard " + std::to_string(k) +
                          ": replica record count diverged from primary");
      }
      for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& a = records[i];
        const auto& b = replica[i];
        if (a.id != b.id || a.offset != b.offset || a.size != b.size ||
            a.type != b.type || a.host != b.host || a.user != b.user ||
            a.rkey != b.rkey) {
          return Status(ErrorCode::kConflict,
                        "shard " + std::to_string(k) + ": replica diverged at buffer " +
                            std::to_string(a.id));
        }
      }
    }
  }
  return Status::Ok();
}

std::vector<BufferId> ShardedControlPlane::OrphanedBuffers(SimTime now) const {
  std::vector<BufferId> orphans;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    for (const auto& rec : shards_[k].primary->db().records()) {
      if (ShardOfBuffer(rec.id) != k || !leases_.IsLive(rec.host, now)) {
        orphans.push_back(rec.id);
      }
    }
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

}  // namespace zombie::remotemem
