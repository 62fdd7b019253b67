// The lab testbed of Section 6.1, built from a declarative TopologySpec: a
// rack with a global controller, a secondary controller, one user server and
// N zombie servers pushed to Sz, plus a RemoteBackend over an extent
// allocated to the user server.  Also the consolidation planner's view of a
// rack's servers.
#ifndef ZOMBIELAND_SRC_SCENARIO_TESTBED_H_
#define ZOMBIELAND_SRC_SCENARIO_TESTBED_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/rack.h"
#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/remotemem/memory_manager.h"
#include "src/scenario/spec.h"
#include "src/sim/consolidation.h"

namespace zombie::scenario {

class Testbed {
 public:
  // Builds the rack described by `topology` and allocates a `remote_bytes`
  // RAM-Extension extent for the user server.  Aborts on failure (the specs
  // are validated by ScenarioBuilder; a failure here is a programming error,
  // exactly as in the historical bench harness).
  Testbed(const TopologySpec& topology, Bytes remote_bytes) {
    cloud::RackConfig config;
    config.buff_size = topology.buff_size;
    config.materialize_memory = topology.materialize_memory;
    rack_ = std::make_unique<cloud::Rack>(config);
    const acpi::MachineProfile profile = MachineProfileFor(topology.machine);
    const cloud::ServerCapacity spec{topology.server_cpus, topology.server_memory};
    controller_host_ = rack_->AddServer("ctr", profile, spec).id();
    secondary_host_ = rack_->AddServer("ctr2", profile, spec).id();
    user_ = rack_->AddServer("user", profile, spec).id();
    rack_->FindServer(controller_host_)->set_role(cloud::Role::kGlobalController);
    rack_->FindServer(secondary_host_)->set_role(cloud::Role::kSecondaryController);
    rack_->FindServer(user_)->set_role(cloud::Role::kUser);
    for (std::size_t z = 0; z < topology.zombies; ++z) {
      auto& server = rack_->AddServer(
          topology.zombies == 1 ? "zombie" : "zombie" + std::to_string(z + 1),
          profile, spec);
      zombies_.push_back(server.id());
      if (!rack_->PushToZombie(server.id()).ok()) {
        std::abort();
      }
    }
    auto extent = rack_->manager(user_).AllocExtension(remote_bytes);
    if (!extent.ok()) {
      std::abort();
    }
    backend_ = std::make_unique<hv::RemoteBackend>(extent.value());
  }

  cloud::Rack& rack() { return *rack_; }
  hv::RemoteBackend* backend() { return backend_.get(); }
  remotemem::ServerId user() const { return user_; }
  remotemem::ServerId zombie() const { return zombies_.front(); }
  const std::vector<remotemem::ServerId>& zombies() const { return zombies_; }

 private:
  std::unique_ptr<cloud::Rack> rack_;
  std::unique_ptr<hv::RemoteBackend> backend_;
  remotemem::ServerId controller_host_ = 0;
  remotemem::ServerId secondary_host_ = 0;
  remotemem::ServerId user_ = 0;
  std::vector<remotemem::ServerId> zombies_;
};

// ZombieStack's local share of a moved VM: kWssLocalFraction of its working
// set.
inline Bytes ZombieStackLocalShare(const hv::VmSpec& vm) {
  return static_cast<Bytes>(sim::kWssLocalFraction * static_cast<double>(vm.working_set));
}

// The consolidation planner's view of rack servers, in units of each
// server's capacity (the racks that consolidate are uniform).  A rack server
// books CPU but has no separate actual load, so used CPU = booked CPU.
// `needed_if_moved` gives the local bytes a VM needs on a target.
inline std::vector<sim::HostView> RackHostViews(
    const std::vector<cloud::Server*>& hosts,
    const std::function<Bytes(const hv::VmSpec&)>& needed_if_moved) {
  std::vector<sim::HostView> views;
  for (const cloud::Server* server : hosts) {
    const double cpus = server->capacity().cpus;
    const auto mem = static_cast<double>(server->capacity().memory);
    sim::HostView& view = views.emplace_back();
    view.state = server->machine().state();
    view.booked_cpu = view.used_cpu = server->UsedCpus() / cpus;
    view.local_mem = static_cast<double>(server->UsedLocalMemory()) / mem;
    view.lent_mem = static_cast<double>(server->lent_memory()) / mem;
    for (const auto& [id, vm] : server->vms()) {
      const double cpu = vm.vcpus / cpus;
      view.vms.push_back({id, cpu, cpu, static_cast<double>(server->LocalBytesOf(id)) / mem,
                          static_cast<double>(needed_if_moved(vm)) / mem});
    }
  }
  return views;
}

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_TESTBED_H_
