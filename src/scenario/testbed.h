// The lab testbed of Section 6.1, built from a declarative TopologySpec: a
// rack with a global controller, a secondary controller, one user server and
// N zombie servers pushed to Sz, plus a RemoteBackend over an extent
// allocated to the user server.
#ifndef ZOMBIELAND_SRC_SCENARIO_TESTBED_H_
#define ZOMBIELAND_SRC_SCENARIO_TESTBED_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/cloud/rack.h"
#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/remotemem/memory_manager.h"
#include "src/scenario/spec.h"

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

}  // namespace zombie::scenario

#endif  // ZOMBIELAND_SRC_SCENARIO_TESTBED_H_
