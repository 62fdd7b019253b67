#include "src/cloud/consolidation.h"

#include <algorithm>
#include <map>

namespace zombie::cloud {

Bytes NeatPlanner::RequiredLocalMemory(const hv::VmSpec& vm) const {
  if (config_.mode == ConsolidationMode::kNeat) {
    // Vanilla Neat places a VM only where all booked resources fit.
    return vm.reserved_memory;
  }
  return static_cast<Bytes>(config_.wss_local_fraction *
                            static_cast<double>(vm.working_set));
}

bool NeatPlanner::FitsForMigration(const Server& host, const hv::VmSpec& vm,
                                   Bytes incoming_memory, std::uint32_t incoming_cpus) const {
  if (host.machine().state() != acpi::SleepState::kS0) {
    return false;
  }
  if (host.UsedCpus() + incoming_cpus + vm.vcpus > host.capacity().cpus) {
    return false;
  }
  return host.FreeLocalMemory() >= incoming_memory + RequiredLocalMemory(vm);
}

ConsolidationPlan NeatPlanner::Plan(const std::vector<Server*>& hosts) const {
  ConsolidationPlan plan;

  // Step 1 & 2: classify hosts.
  std::vector<Server*> underloaded;
  std::vector<Server*> overloaded;
  std::vector<Server*> normal;
  std::vector<Server*> awake;
  for (Server* host : hosts) {
    if (host->machine().state() != acpi::SleepState::kS0) {
      continue;
    }
    awake.push_back(host);
    const double util = host->CpuUtilization();
    if (util > config_.overload_cpu_threshold) {
      overloaded.push_back(host);
    } else if (util <= config_.underload_cpu_threshold && !host->vms().empty()) {
      underloaded.push_back(host);
    } else {
      normal.push_back(host);
    }
  }

  // Track planned deltas so multiple migrations to one target are admitted
  // consistently within this round.
  std::map<remotemem::ServerId, Bytes> planned_memory;
  std::map<remotemem::ServerId, std::uint32_t> planned_cpus;
  std::map<remotemem::ServerId, std::uint32_t> drained_cpus;  // leaving a source

  auto try_place = [&](Server* source, const hv::VmSpec& vm,
                       const std::vector<Server*>& targets) -> Server* {
    // Prefer the most utilised qualifying target (stacking).
    std::vector<Server*> ranked = targets;
    std::stable_sort(ranked.begin(), ranked.end(), [](Server* a, Server* b) {
      if (a->CpuUtilization() != b->CpuUtilization()) {
        return a->CpuUtilization() > b->CpuUtilization();
      }
      return a->id() < b->id();
    });
    for (Server* target : ranked) {
      if (target == source) {
        continue;
      }
      if (FitsForMigration(*target, vm, planned_memory[target->id()],
                           planned_cpus[target->id()])) {
        planned_memory[target->id()] += RequiredLocalMemory(vm);
        planned_cpus[target->id()] += vm.vcpus;
        return target;
      }
    }
    return nullptr;
  };

  // Step 1: drain underloaded hosts entirely (least utilised first, so the
  // emptiest servers suspend soonest).
  std::stable_sort(underloaded.begin(), underloaded.end(), [](Server* a, Server* b) {
    if (a->CpuUtilization() != b->CpuUtilization()) {
      return a->CpuUtilization() < b->CpuUtilization();
    }
    return a->id() < b->id();
  });
  for (Server* source : underloaded) {
    std::vector<MigrationOrder> orders;
    bool all_placed = true;
    for (const auto& [vm_id, vm] : source->vms()) {
      // Candidate targets: normal hosts plus other underloaded hosts that we
      // have not fully drained (Neat may merge two half-empty hosts).
      std::vector<Server*> targets = normal;
      for (Server* other : underloaded) {
        if (other != source &&
            std::find_if(plan.hosts_to_suspend.begin(), plan.hosts_to_suspend.end(),
                         [other](remotemem::ServerId id) { return id == other->id(); }) ==
                plan.hosts_to_suspend.end()) {
          targets.push_back(other);
        }
      }
      Server* target = try_place(source, vm, targets);
      if (target == nullptr) {
        all_placed = false;
        break;
      }
      orders.push_back({vm_id, source->id(), target->id()});
    }
    if (all_placed && !orders.empty()) {
      plan.migrations.insert(plan.migrations.end(), orders.begin(), orders.end());
      plan.hosts_to_suspend.push_back(source->id());
      drained_cpus[source->id()] = source->UsedCpus();
    } else if (!all_placed) {
      // Rollback this source's planned deltas.
      for (const auto& order : orders) {
        // Find the VM spec to subtract.
        auto it = source->vms().find(order.vm);
        if (it != source->vms().end()) {
          planned_memory[order.to] -= RequiredLocalMemory(it->second);
          planned_cpus[order.to] -= it->second.vcpus;
        }
      }
    }
  }

  // Steps 2-4: offload overloaded hosts.
  for (Server* source : overloaded) {
    // Move the smallest VMs first until below the threshold (common Neat
    // heuristic: minimise migration cost).
    std::vector<hv::VmSpec> vms;
    for (const auto& [vm_id, vm] : source->vms()) {
      vms.push_back(vm);
    }
    std::stable_sort(vms.begin(), vms.end(), [](const hv::VmSpec& a, const hv::VmSpec& b) {
      if (a.vcpus != b.vcpus) {
        return a.vcpus < b.vcpus;
      }
      return a.id < b.id;
    });
    std::uint32_t shed = 0;
    for (const auto& vm : vms) {
      const double util_after =
          static_cast<double>(source->UsedCpus() - shed - vm.vcpus) /
          static_cast<double>(source->capacity().cpus);
      Server* target = try_place(source, vm, normal);
      if (target != nullptr) {
        plan.migrations.push_back({vm.id, source->id(), target->id()});
        shed += vm.vcpus;
      }
      if (util_after <= config_.overload_cpu_threshold &&
          static_cast<double>(source->UsedCpus() - shed) /
                  static_cast<double>(source->capacity().cpus) <=
              config_.overload_cpu_threshold) {
        break;
      }
    }
  }

  return plan;
}

}  // namespace zombie::cloud
