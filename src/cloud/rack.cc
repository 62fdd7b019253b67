#include "src/cloud/rack.h"

#include <algorithm>
#include <utility>

#include "src/acpi/sleep_state.h"

namespace zombie::cloud {

Rack::Rack(RackConfig config)
    : config_(config),
      verbs_(&fabric_),
      plane_(remotemem::PlaneConfig{
          .buff_size = config.buff_size,
          .shards = config.controller_shards == 0 ? 1 : config.controller_shards,
          .lease = {.ttl = config.lease_ttl}}),
      agents_(this) {
  plane_.set_agents(&agents_);
  // One fabric node per controller shard.  The node is always reachable: it
  // models the controller slot (primary plus warm standby), which survives a
  // primary-process crash.
  for (std::size_t k = 0; k < plane_.shard_count(); ++k) {
    rdma::NodePort port;
    port.name = "ctrl-shard-" + std::to_string(k);
    port.can_initiate = [] { return true; };
    port.memory_accessible = [] { return true; };
    shard_nodes_.push_back(fabric_.Attach(std::move(port)));
  }
}

Server& Rack::AddServer(std::string hostname, acpi::MachineProfile profile,
                        ServerCapacity capacity, bool sz_capable) {
  const remotemem::ServerId id = next_id_++;
  auto server = std::make_unique<Server>(id, std::move(hostname), std::move(profile), capacity,
                                         sz_capable);
  Server* raw = server.get();

  rdma::NodePort port;
  port.name = raw->hostname();
  port.can_initiate = [raw] {
    return acpi::CpuPowered(raw->machine().ospm().current_state());
  };
  port.memory_accessible = [raw] { return raw->machine().ServesRemoteMemory(); };
  raw->set_node(fabric_.Attach(std::move(port)));

  plane_.RegisterServer(id);
  plane_.GrantLease(id, clock_.now());
  managers_.emplace(id, std::make_unique<remotemem::RemoteMemoryManager>(
                            id, &verbs_, raw->node(), &plane_));

  servers_.push_back(std::move(server));
  return *raw;
}

Server* Rack::FindServer(remotemem::ServerId id) {
  // Ids are minted 1, 2, 3... in AddServer and servers_ never shrinks.
  if (id == 0 || id > servers_.size()) {
    return nullptr;
  }
  return servers_[id - 1].get();
}

Status Rack::PushToZombie(remotemem::ServerId id) {
  Server* server = FindServer(id);
  if (server == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown server");
  }
  if (!server->vms().empty()) {
    return Status(ErrorCode::kFailedPrecondition, "server still hosts VMs");
  }
  if (!server->machine().sz_capable()) {
    return Status(ErrorCode::kFailedPrecondition, "board is not Sz-capable");
  }

  // Install the pre-zombie hook: delegation happens *inside* the Fig. 6
  // suspend path, when OSPM signals the remote-mem-mgr.
  remotemem::RemoteMemoryManager* mgr = managers_.at(id).get();
  const Bytes lendable = static_cast<Bytes>(
      acpi::kSzDelegateFraction * static_cast<double>(server->FreeLocalMemory()));
  Status delegation_status = Status::Ok();
  server->machine().ospm().set_pre_zombie_hook([this, mgr, lendable, server,
                                                &delegation_status] {
    auto delegated = mgr->DelegateOnZombie(lendable, config_.materialize_memory);
    if (delegated.ok()) {
      server->set_lent_memory(delegated.value() * config_.buff_size);
    } else {
      delegation_status = delegated.status();
    }
  });

  Status suspend = server->machine().Suspend(acpi::SleepState::kSz);
  server->machine().ospm().set_pre_zombie_hook(nullptr);
  if (!suspend.ok()) {
    return suspend;
  }
  if (!delegation_status.ok()) {
    return delegation_status;
  }
  server->set_role(Role::kZombie);
  return Status::Ok();
}

Result<Duration> Rack::WakeServer(remotemem::ServerId id) {
  Server* server = FindServer(id);
  if (server == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown server");
  }
  // A box that lost power (S5) or sits in S1/S2 hears no Wake-on-LAN:
  // refuse before reclaiming, so it keeps its role and what it lent.
  const acpi::SleepState state = server->machine().state();
  if (state != acpi::SleepState::kS0 && !acpi::WakeCapable(state)) {
    return Status(ErrorCode::kFailedPrecondition, "server cannot be woken from its sleep state");
  }
  // Reclaim everything the server had lent before waking it: a reclaim the
  // control plane refuses (its home shard is down) leaves the zombie asleep
  // and still lending, so a retry pays the full exit latency.
  if (server->lent_memory() > 0) {
    auto reclaimed = managers_.at(id)->ReclaimOnWake(server->lent_memory());
    if (!reclaimed.ok()) {
      return reclaimed.status();
    }
    server->set_lent_memory(0);
  }
  const Duration latency = server->machine().WakeOnLan();
  server->set_role(Role::kActive);
  return latency;
}

Status Rack::KillHost(remotemem::ServerId id) {
  Server* server = FindServer(id);
  if (server == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown server");
  }
  // Silent death: the node vanishes from the fabric mid-flight.  Nothing is
  // reclaimed here — the control plane only learns when the host's lease
  // lapses at the missed-heartbeat deadline.
  dead_hosts_.insert(id);
  fabric_.Detach(server->node());
  return Status::Ok();
}

void Rack::SetShardPartition(std::size_t shard, bool broken) {
  for (const auto& server : servers_) {
    fabric_.SetLinkBroken(shard_nodes_[shard], server->node(), broken);
  }
}

void Rack::DropHeartbeatsUntil(remotemem::ServerId id, SimTime until) {
  heartbeat_drop_until_[id] = until;
}

void Rack::PumpHeartbeat() {
  // Managers address the sharded plane (not a specific primary), so a
  // promotion needs no re-pointing: the plane swaps the shard's primary in
  // place and the next manager call lands on the promoted controller.
  (void)plane_.PumpHeartbeats();
}

void Rack::RenewLeases(SimTime now) {
  for (const auto& server_ptr : servers_) {
    Server* server = server_ptr.get();
    const remotemem::ServerId id = server->id();
    if (dead_hosts_.contains(id)) {
      continue;
    }
    if (auto it = heartbeat_drop_until_.find(id); it != heartbeat_drop_until_.end()) {
      if (now < it->second) {
        continue;  // heartbeats still being dropped
      }
      heartbeat_drop_until_.erase(it);
    }
    const rdma::NodeId ctrl = shard_nodes_[plane_.ShardOfHost(id)];
    if (fabric_.NodeCanInitiate(server->node())) {
      // S0 host: one request/response exchange with its shard — the 4-byte
      // host id out, the 8-byte lease epoch back.  A partition (or any
      // transport failure) is a missed heartbeat: the lease drifts toward
      // expiry.
      if (fabric_.PriceOneSided(server->node(), ctrl, 4).ok()) {
        (void)plane_.RenewLease(id, now);
        if (fabric_.PriceOneSided(ctrl, server->node(), 8).ok()) {
          fabric_.NoteTransfer(12);
        }
      }
    } else if (fabric_.NodeMemoryAccessible(server->node())) {
      // Zombie host: no CPU to send anything, so the controller side probes
      // liveness with a one-sided read (the NIC answers from Sz).
      if (fabric_.PriceOneSided(ctrl, server->node(), 64).ok()) {
        (void)plane_.RenewLease(id, now);
      }
    }
    // S3/S5 hosts renew nothing: their memory left the pool anyway.
  }
}

std::vector<remotemem::ExpiryRecord> Rack::Tick() {
  clock_.Advance(config_.tick_period);
  const SimTime now = clock_.now();
  RenewLeases(now);
  auto expired = plane_.ExpireLeases(now);
  for (const auto& record : expired) {
    // Rack-side bookkeeping for a host declared dead: its lent memory is
    // gone from the pool and its manager's delegation records are stale.
    if (Server* server = FindServer(record.host); server != nullptr) {
      server->set_lent_memory(0);
    }
    if (auto it = managers_.find(record.host); it != managers_.end()) {
      it->second->ForgetDelegations();
    }
  }
  PumpHeartbeat();
  return expired;
}

double Rack::TotalPowerPercent() const {
  if (servers_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& s : servers_) {
    sum += s->machine().PowerPercentNow();
  }
  return sum / static_cast<double>(servers_.size());
}

double Rack::TotalPowerWatts() const {
  double sum = 0.0;
  for (const auto& s : servers_) {
    sum += MwToWatts(s->machine().PowerNow());
  }
  return sum;
}

Status Rack::Agents::ReclaimFromUser(remotemem::ServerId user,
                                     const std::vector<remotemem::BufferId>& buffers) {
  auto it = rack_->managers_.find(user);
  if (it == rack_->managers_.end()) {
    return Status(ErrorCode::kNotFound, "unknown user server");
  }
  it->second->OnReclaimNotice(buffers);
  return Status::Ok();
}

Bytes Rack::Agents::RequestActiveDelegation(remotemem::ServerId host, Bytes wanted) {
  Server* server = rack_->FindServer(host);
  if (server == nullptr || server->machine().state() != acpi::SleepState::kS0) {
    return 0;
  }
  // A dead host can't answer AS_get_free_mem even if its machine model
  // still reads S0 (death is silent).
  if (rack_->dead_hosts_.contains(host)) {
    return 0;
  }
  // Lend whatever slack exists beyond a safety floor of 25% of capacity.
  const Bytes floor = server->capacity().memory / 4;
  const Bytes free = server->FreeLocalMemory();
  if (free <= floor) {
    return 0;
  }
  const Bytes lendable = std::min(wanted, free - floor);
  auto delegated =
      rack_->managers_.at(host)->DelegateActive(lendable, rack_->config_.materialize_memory);
  if (!delegated.ok()) {
    return 0;
  }
  const Bytes lent = delegated.value() * rack_->config_.buff_size;
  server->set_lent_memory(server->lent_memory() + lent);
  return lent;
}

}  // namespace zombie::cloud
