#include "src/sim/consolidation.h"

#include <algorithm>
#include <utility>

namespace zombie::sim {

ConsolidationPlan PlanConsolidation(std::vector<HostView> hosts) {
  ConsolidationPlan plan;
  std::vector<std::size_t> underloaded;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const HostView& h = hosts[i];
    if (h.state == acpi::SleepState::kS0 && !h.vms.empty() && h.used_cpu <= kUnderloadCpu) {
      underloaded.push_back(i);
    }
  }
  std::stable_sort(underloaded.begin(), underloaded.end(), [&](std::size_t a, std::size_t b) {
    return hosts[a].used_cpu < hosts[b].used_cpu;
  });

  // Per-host (cpu, mem) deltas of one source's tentative moves: a flat array
  // reset only where written.
  std::vector<std::pair<double, double>> deltas(hosts.size(), {0.0, 0.0});
  std::vector<std::size_t> touched;
  std::vector<std::size_t> targets;
  for (std::size_t source : underloaded) {
    for (std::size_t host : touched) {
      deltas[host] = {0.0, 0.0};
    }
    touched.clear();
    targets.clear();
    bool ok = true;
    for (const VmView& vm : hosts[source].vms) {
      std::size_t target = hosts.size();
      double best_key = -1.0;
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        const HostView& t = hosts[i];
        const auto& delta = deltas[i];
        if (i == source || t.state != acpi::SleepState::kS0 ||
            t.booked_cpu + delta.first + vm.booked_cpu > 1.0 + 1e-9 ||
            t.local_mem + delta.second + vm.needed_if_moved > 1.0 - t.lent_mem + 1e-9) {
          continue;
        }
        if (t.booked_cpu > best_key) {
          best_key = t.booked_cpu;
          target = i;
        }
      }
      if (target == hosts.size()) {
        ok = false;
        break;
      }
      if (deltas[target] == std::pair<double, double>{0.0, 0.0}) {
        touched.push_back(target);
      }
      deltas[target].first += vm.booked_cpu;
      deltas[target].second += vm.needed_if_moved;
      targets.push_back(target);
    }
    if (!ok) {
      continue;  // cannot fully drain this host
    }
    // Commit the drain with the same arithmetic the caller's execution uses,
    // so later sources see the view the caller will have.
    HostView& from = hosts[source];
    std::vector<VmView> leaving;
    leaving.swap(from.vms);
    for (std::size_t k = 0; k < leaving.size(); ++k) {
      VmView vm = leaving[k];
      HostView& to = hosts[targets[k]];
      from.booked_cpu = std::max(0.0, from.booked_cpu - vm.booked_cpu);
      from.used_cpu = std::max(0.0, from.used_cpu - vm.used_cpu);
      from.local_mem = std::max(0.0, from.local_mem - vm.local_mem);
      to.booked_cpu += vm.booked_cpu;
      to.used_cpu += vm.used_cpu;
      to.local_mem += vm.needed_if_moved;
      vm.local_mem = vm.needed_if_moved;
      to.vms.push_back(vm);
      plan.moves.push_back({vm.id, source, targets[k]});
    }
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i].state == acpi::SleepState::kS0 && hosts[i].vms.empty()) {
      plan.suspend.push_back(i);
    }
  }
  return plan;
}

}  // namespace zombie::sim
