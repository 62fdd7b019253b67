// The lab testbed of Section 6.1: a rack of HP Compaq Elite 8300 servers (8
// cpus, 16 GiB) with a global controller, a secondary controller, one user
// server and one zombie pushed to Sz, at a 4 MiB BUFF_SIZE, plus a
// RemoteBackend over an extent allocated to the user server.  Also the
// consolidation planner's view of a rack's servers.
#ifndef ZOMBIELAND_SRC_SCENARIO_TESTBED_H_
#define ZOMBIELAND_SRC_SCENARIO_TESTBED_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "src/cloud/rack.h"
#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/backend.h"
#include "src/remotemem/memory_manager.h"
#include "src/sim/consolidation.h"

namespace zombie::scenario {

class Testbed {
 public:
  // Builds the rack and allocates a `remote_bytes` RAM-Extension extent for
  // the user server.  Aborts on failure (the shape is fixed; a failure here
  // is a programming error, exactly as in the historical bench harness).
  explicit Testbed(Bytes remote_bytes) {
    cloud::RackConfig config;
    config.buff_size = 4 * kMiB;
    rack_ = std::make_unique<cloud::Rack>(config);
    const acpi::MachineProfile profile = acpi::MachineProfile::HpCompaqElite8300();
    rack_->AddServer("ctr", profile, {}).set_role(cloud::Role::kGlobalController);
    rack_->AddServer("ctr2", profile, {}).set_role(cloud::Role::kSecondaryController);
    cloud::Server& user = rack_->AddServer("user", profile, {});
    user.set_role(cloud::Role::kUser);
    if (!rack_->PushToZombie(rack_->AddServer("zombie", profile, {}).id()).ok()) {
      std::abort();
    }
    auto extent = rack_->manager(user.id()).AllocExtension(remote_bytes);
    if (!extent.ok()) {
      std::abort();
    }
    backend_ = std::make_unique<hv::RemoteBackend>(extent.value());
  }

  hv::RemoteBackend* backend() { return backend_.get(); }

 private:
  std::unique_ptr<cloud::Rack> rack_;
  std::unique_ptr<hv::RemoteBackend> backend_;
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
