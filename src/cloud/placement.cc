#include "src/cloud/placement.h"

#include <algorithm>

namespace zombie::cloud {

bool NovaScheduler::Qualifies(const Server& host, const hv::VmSpec& vm) const {
  if (host.machine().state() != acpi::SleepState::kS0) {
    return false;  // suspended hosts never pass the filter
  }
  if (host.UsedCpus() + vm.vcpus > host.capacity().cpus) {
    return false;
  }
  const Bytes needed_local =
      static_cast<Bytes>(config_.local_memory_floor * static_cast<double>(vm.reserved_memory));
  if (host.FreeLocalMemory() < needed_local) {
    return false;
  }
  // The non-local remainder must be coverable by the remote pool.
  const Bytes local = std::min<Bytes>(host.FreeLocalMemory(), vm.reserved_memory);
  const Bytes remote_needed = vm.reserved_memory - local;
  return remote_needed == 0 || remote_needed <= config_.remote_pool_available;
}

std::optional<PlacementDecision> NovaScheduler::Place(const std::vector<Server*>& hosts,
                                                      const hv::VmSpec& vm) const {
  // One pass: the first qualifying host that no later one beats in
  // (utilisation, id) order.  Stack: most utilised first.  Spread: least
  // utilised first.  Ties go to the lower id.
  const bool stack = config_.strategy == PlacementStrategy::kStack;
  const auto better = [stack](const Server* a, const Server* b) {
    const double ua = a->CpuUtilization();
    const double ub = b->CpuUtilization();
    if (ua != ub) {
      return stack ? ua > ub : ua < ub;
    }
    return a->id() < b->id();
  };
  Server* chosen = nullptr;
  for (Server* host : hosts) {
    if (host != nullptr && Qualifies(*host, vm) &&
        (chosen == nullptr || better(host, chosen))) {
      chosen = host;
    }
  }
  if (chosen == nullptr) {
    return std::nullopt;
  }
  PlacementDecision d;
  d.host = chosen->id();
  d.local_bytes = std::min<Bytes>(chosen->FreeLocalMemory(), vm.reserved_memory);
  d.remote_bytes = vm.reserved_memory - d.local_bytes;
  return d;
}

}  // namespace zombie::cloud
