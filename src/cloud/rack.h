// The disaggregated rack of Fig. 7: servers + Infiniband fabric + a sharded
// remote-memory control plane (N primary/secondary controller pairs) +
// per-server remote-memory managers, wired to the OSPM zombie hooks.
//
// Liveness is lease-based and runs in simulated time: every server holds a
// TTL lease with the control plane; Tick() advances the clock one period,
// renews leases (S0 hosts with one priced request/response exchange,
// zombies via a controller-side one-sided probe — a zombie has no CPU to
// call anything), sweeps expired leases (cleanup keeps buffer-ownership
// invariants), and pumps the controller heartbeat/failover protocol.  Fault hooks (KillHost,
// SetShardPartition, DropHeartbeatsUntil, FailShardPrimary) make
// controller-loss, host-loss, partitions and flaky heartbeats first-class
// simulated events (driven by cloud::FaultInjector).
#ifndef ZOMBIELAND_SRC_CLOUD_RACK_H_
#define ZOMBIELAND_SRC_CLOUD_RACK_H_

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/server.h"
#include "src/common/result.h"
#include "src/common/sim_clock.h"
#include "src/rdma/fabric.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/memory_manager.h"
#include "src/remotemem/sharded_plane.h"

namespace zombie::cloud {

struct RackConfig {
  Bytes buff_size = remotemem::kDefaultBuffSize;
  // Fraction of a server's free memory delegated when it goes zombie (the
  // rest covers kernel/firmware state kept in RAM).
  double delegate_fraction = 0.9;
  // Register real (materialized) memory regions; disable for large-scale
  // accounting-only simulation.
  bool materialize_memory = false;
  rdma::FabricParams fabric;
  // Number of control-plane shards (1 = the classic single controller).
  std::size_t controller_shards = 1;
  // Missed-heartbeat deadline before a host's lease lapses.
  Duration lease_ttl = 300 * kMillisecond;
  // Simulated-time step of Tick() (lease renewal + heartbeat period).
  Duration tick_period = 100 * kMillisecond;
};

class Rack {
 public:
  explicit Rack(RackConfig config = {});

  // Adds a server; the rack attaches it to the fabric, registers it with the
  // control plane (which grants its lease), spawns its remote-mem-mgr and
  // installs the OSPM hooks.
  Server& AddServer(std::string hostname, acpi::MachineProfile profile,
                    ServerCapacity capacity, bool sz_capable = true);

  Server* FindServer(remotemem::ServerId id);
  const std::vector<std::unique_ptr<Server>>& servers() const { return servers_; }

  remotemem::ShardedControlPlane& plane() { return plane_; }
  const remotemem::ShardedControlPlane& plane() const { return plane_; }
  remotemem::RemoteMemoryManager& manager(remotemem::ServerId id) { return *managers_.at(id); }
  rdma::Fabric& fabric() { return fabric_; }
  SimTime now() const { return clock_.now(); }

  // ---- Power orchestration ------------------------------------------------
  // Pushes a server into Sz: its manager delegates memory, then OSPM runs
  // the Fig. 6 path.  Fails if the server still hosts VMs.
  [[nodiscard]] Status PushToZombie(remotemem::ServerId id);
  // Reclaims a server's lent memory, then wakes it.  Returns the wake
  // latency.  A failed reclaim leaves the server asleep and still lending.
  [[nodiscard]] Result<Duration> WakeServer(remotemem::ServerId id);

  // ---- Controller failures ------------------------------------------------
  void FailShardPrimary(std::size_t shard) { plane_.FailShardPrimary(shard); }
  void ReviveShardPrimary(std::size_t shard) { plane_.ReviveShardPrimary(shard); }

  // ---- Fault injection ----------------------------------------------------
  // Sudden, silent host death: the node drops off the fabric mid-flight; the
  // control plane only learns through the missed-heartbeat deadline.
  [[nodiscard]] Status KillHost(remotemem::ServerId id);
  bool HostDead(remotemem::ServerId id) const { return dead_hosts_.contains(id); }
  // Partitions (or heals) the fabric between one controller shard's node and
  // every server: lease renewals to that shard fail until healed.
  void SetShardPartition(std::size_t shard, bool broken);
  // Delays/drops a host's heartbeats until the given simulated time (flaky
  // NIC / overloaded daemon); the host itself stays healthy.
  void DropHeartbeatsUntil(remotemem::ServerId id, SimTime until);

  // Heartbeat pump (normally driven by Tick); promotes secondaries whose
  // monitor tripped.
  void PumpHeartbeat();

  // One lease/heartbeat period of simulated time: advances the clock,
  // renews leases, expires lapsed ones (returning the cleanup records) and
  // pumps controller heartbeats.
  std::vector<remotemem::ExpiryRecord> Tick();

  // Rack-wide instantaneous power, percent of the sum of max powers.
  double TotalPowerPercent() const;
  double TotalPowerWatts() const;

 private:
  // AgentDirectory implementation routing controller calls to managers.
  class Agents final : public remotemem::AgentDirectory {
   public:
    explicit Agents(Rack* rack) : rack_(rack) {}
    [[nodiscard]] Status ReclaimFromUser(remotemem::ServerId user,
                           const std::vector<remotemem::BufferId>& buffers) override;
    Bytes RequestActiveDelegation(remotemem::ServerId host, Bytes wanted) override;

   private:
    Rack* rack_;
  };

  // Sends one host's lease renewal (a priced request/response exchange for
  // S0 hosts, a one-sided liveness probe for zombies).  Dead, partitioned or heartbeat-dropped hosts miss
  // their renewal and drift toward expiry.
  void RenewLeases(SimTime now);

  RackConfig config_;
  rdma::Fabric fabric_;
  rdma::Verbs verbs_;
  remotemem::ShardedControlPlane plane_;
  Agents agents_;
  SimClock clock_;
  // One fabric node per controller shard.  The node models the controller
  // *slot* (primary + warm standby share it), so it stays reachable across a
  // primary crash — only partitions or host death break the renewal path.
  std::vector<rdma::NodeId> shard_nodes_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::map<remotemem::ServerId, std::unique_ptr<remotemem::RemoteMemoryManager>> managers_;
  std::map<remotemem::ServerId, SimTime> heartbeat_drop_until_;
  std::set<remotemem::ServerId> dead_hosts_;
  remotemem::ServerId next_id_ = 1;
};

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_RACK_H_
