#include "src/sim/dc_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/acpi/sleep_state.h"
#include "src/sim/consolidation.h"
#include "src/sim/cooling.h"

namespace zombie::sim {

std::string_view PolicyName(Policy p) {
  switch (p) {
    case Policy::kAlwaysOn:
      return "AlwaysOn";
    case Policy::kNeat:
      return "Neat";
    case Policy::kOasis:
      return "Oasis";
    case Policy::kZombieStack:
      return "ZombieStack";
  }
  return "?";
}

namespace {

// Servers are the planner's host view: resources in server units, cpu and
// memory in [0, 1] per server, and each hosted VM as a VmView whose id is
// the VM's dense index.
using SimServer = HostView;

struct SimVm {
  const TraceTask* task = nullptr;
  int host = -1;
  bool active = false;      // currently placed in the cluster
  double remote_mem = 0.0;  // served from the zombie pool (ZombieStack)
  double parked_mem = 0.0;  // parked on an Oasis memory server
};

// Every trace task is one VM, so VMs live in a dense array indexed by the
// task's position in the trace — no per-step std::map node churn on the
// arrival/departure/consolidation paths of the 10k-server replays.
struct World {
  std::vector<SimServer> servers;
  std::vector<SimVm> vms;          // indexed by dense task index
  double zombie_pool_free = 0.0;   // delegated-but-unused zombie memory
  double parked_total = 0.0;       // Oasis memory-server load
  std::size_t migrations = 0;
};

double WssOf(const TraceTask& task) {
  return (task.cpu_usage_ratio < 0.01 ? 0.25 : 0.6) * task.booked_mem;
}

// Local memory a task needs when first placed: ZombieStack keeps 50% of the
// booking local (Section 5.1); the others place it whole (Oasis parks cold
// memory only when consolidating).
double InitialLocal(Policy policy, const TraceTask& task) {
  return policy == Policy::kZombieStack ? 0.5 * task.booked_mem : task.booked_mem;
}

// Local memory a task needs on a consolidation target: the full booking for
// Neat, only the working set of an idle VM for Oasis (partial migration), and
// kWssLocalFraction of the working set for ZombieStack (Section 5.2).
double NeededIfMoved(Policy policy, const TraceTask& task, const DcConfig& config) {
  switch (policy) {
    case Policy::kAlwaysOn:
    case Policy::kNeat:
      return task.booked_mem;
    case Policy::kOasis:
      return task.cpu_usage_ratio < config.idle_vm_threshold ? WssOf(task) : task.booked_mem;
    case Policy::kZombieStack:
      return kWssLocalFraction * WssOf(task);
  }
  return task.booked_mem;
}

bool Fits(const SimServer& server, const TraceTask& task, double local_needed) {
  return server.state == acpi::SleepState::kS0 &&
         server.booked_cpu + task.booked_cpu <= 1.0 + 1e-9 &&
         server.local_mem + local_needed <= 1.0 - server.lent_mem + 1e-9;
}

void HostVm(World& world, int host, std::uint32_t vm_idx, const TraceTask& task,
            double local_mem, Policy policy, const DcConfig& config) {
  SimServer& server = world.servers[host];
  const double used_cpu = task.booked_cpu * task.cpu_usage_ratio;
  server.booked_cpu += task.booked_cpu;
  server.used_cpu += used_cpu;
  server.local_mem += local_mem;
  server.vms.push_back(
      {vm_idx, task.booked_cpu, used_cpu, local_mem, NeededIfMoved(policy, task, config)});
  SimVm& vm = world.vms[vm_idx];
  vm.task = &task;
  vm.host = host;
  vm.active = true;
  const double remote = task.booked_mem - local_mem - vm.parked_mem;
  if (policy == Policy::kZombieStack && remote > 1e-12) {
    vm.remote_mem = remote;
    world.zombie_pool_free -= remote;
  } else {
    vm.remote_mem = 0.0;
  }
}

// Removes a VM from its host and returns its view entry (empty if it was not
// hosted).
VmView UnhostVm(World& world, std::uint32_t vm_idx) {
  SimVm& vm = world.vms[vm_idx];
  VmView hosted;
  if (!vm.active) {
    return hosted;
  }
  if (vm.host >= 0) {
    SimServer& server = world.servers[vm.host];
    const auto it = std::find_if(server.vms.begin(), server.vms.end(),
                                 [&](const VmView& v) { return v.id == vm_idx; });
    assert(it != server.vms.end());
    hosted = *it;
    server.booked_cpu = std::max(0.0, server.booked_cpu - hosted.booked_cpu);
    server.used_cpu = std::max(0.0, server.used_cpu - hosted.used_cpu);
    server.local_mem = std::max(0.0, server.local_mem - hosted.local_mem);
    server.vms.erase(it);
  }
  world.zombie_pool_free += vm.remote_mem;
  world.parked_total = std::max(0.0, world.parked_total - vm.parked_mem);
  vm.host = -1;
  return hosted;
}

// Wakes the best suspended server (S3 first — cheapest to disturb — then the
// zombie serving the least pool memory).  Returns its index or -1.
int WakeOne(World& world, const DcConfig& config) {
  int best_s3 = -1;
  int best_zombie = -1;
  double best_lent = 0.0;
  for (std::size_t i = 0; i < world.servers.size(); ++i) {
    SimServer& s = world.servers[i];
    if (s.state == acpi::SleepState::kS3 && best_s3 < 0) {
      best_s3 = static_cast<int>(i);
    } else if (s.state == acpi::SleepState::kSz) {
      // The LRU zombie (Section 5.2): fewest allocated buffers == least
      // lent-in-use.
      if (best_zombie < 0 || s.lent_mem < best_lent) {
        best_zombie = static_cast<int>(i);
        best_lent = s.lent_mem;
      }
    }
  }
  int chosen = best_s3 >= 0 ? best_s3 : best_zombie;
  if (chosen < 0) {
    return -1;
  }
  SimServer& s = world.servers[chosen];
  if (s.state == acpi::SleepState::kSz) {
    // Reclaim: its delegation leaves the pool.  (Users of that memory are
    // re-pointed to other pool buffers; if the pool goes negative the
    // controller would escalate — we clamp and let the next consolidation
    // round repair.)
    world.zombie_pool_free -= s.lent_mem * config.delegate_fraction;
    s.lent_mem = 0.0;
  }
  s.state = acpi::SleepState::kS0;
  return chosen;
}

int PlaceVm(World& world, const TraceTask& task, Policy policy) {
  const double local_needed = InitialLocal(policy, task);
  const double remote_needed = task.booked_mem - local_needed;
  // Stack strategy: most-loaded qualifying server first (AlwaysOn spreads).
  int best = -1;
  double best_key = -1.0;
  for (std::size_t i = 0; i < world.servers.size(); ++i) {
    const SimServer& s = world.servers[i];
    if (!Fits(s, task, local_needed)) {
      continue;
    }
    if (policy == Policy::kZombieStack && remote_needed > world.zombie_pool_free + 1e-9) {
      // Not enough pool: this placement would need full local memory.
      if (!Fits(s, task, task.booked_mem)) {
        continue;
      }
    }
    const double key =
        policy == Policy::kAlwaysOn ? (1.0 - s.booked_cpu) : s.booked_cpu;
    if (key > best_key) {
      best_key = key;
      best = static_cast<int>(i);
    }
  }
  return best;
}

// One consolidation round: the shared planner decides, this executes — VM
// bookkeeping, Oasis parking, and the suspend to Sz (ZombieStack, delegating
// the free RAM to the pool) or S3 (Neat, Oasis).
void Consolidate(World& world, Policy policy, const DcConfig& config) {
  if (policy == Policy::kAlwaysOn) {
    return;
  }
  const ConsolidationPlan plan = PlanConsolidation(world.servers);
  for (const Move& move : plan.moves) {
    const auto vm_idx = static_cast<std::uint32_t>(move.vm);
    const TraceTask& task = *world.vms[vm_idx].task;
    const double local = UnhostVm(world, vm_idx).needed_if_moved;
    // Oasis parks what it did not move on a memory server; for every other
    // move the whole booking is accounted for locally or in the pool.
    const double parked = policy == Policy::kOasis ? task.booked_mem - local : 0.0;
    world.vms[vm_idx].parked_mem = parked;
    world.parked_total += parked;
    HostVm(world, static_cast<int>(move.to), vm_idx, task, local, policy, config);
    ++world.migrations;
  }
  for (std::size_t i : plan.suspend) {
    SimServer& s = world.servers[i];
    if (policy == Policy::kZombieStack) {
      s.state = acpi::SleepState::kSz;
      s.lent_mem = (1.0 - s.local_mem) * config.delegate_fraction;
      world.zombie_pool_free += s.lent_mem;
    } else {
      s.state = acpi::SleepState::kS3;
    }
  }
}

double ServerPowerPercent(const SimServer& s, const acpi::MachineProfile& profile) {
  if (s.state == acpi::SleepState::kS0) {
    return profile.S0Percent(std::min(1.0, s.used_cpu));
  }
  return profile.SleepPercent(s.state);
}

}  // namespace

DcResult RunPolicy(const Trace& trace, Policy policy, const acpi::MachineProfile& profile,
                   const DcConfig& config) {
  World world;
  world.servers.resize(trace.config.servers);
  world.vms.resize(trace.tasks.size());

  // Index tasks by start/end for the stepped replay.  A task's dense index
  // (its position in trace.tasks) identifies its VM everywhere below.
  std::vector<std::uint32_t> by_start;
  by_start.reserve(trace.tasks.size());
  for (std::uint32_t i = 0; i < trace.tasks.size(); ++i) {
    by_start.push_back(i);
  }
  std::stable_sort(by_start.begin(), by_start.end(), [&](std::uint32_t a, std::uint32_t b) {
    return trace.tasks[a].start < trace.tasks[b].start;
  });

  DcResult result;
  result.policy = policy;

  std::size_t next_arrival = 0;
  std::vector<std::pair<SimTime, std::uint32_t>> endings;  // min-heap by time
  auto cmp = [](const auto& a, const auto& b) { return a.first > b.first; };

  SimTime next_consolidation = config.consolidation_period;
  double active_server_steps = 0.0;
  std::size_t steps = 0;
  const SimTime horizon = trace.config.horizon;

  std::vector<std::uint32_t> pending;   // arrivals that did not fit yet
  std::vector<std::uint32_t> arriving;  // this step's arrivals (reused buffer)

  for (SimTime now = 0; now < horizon; now += config.step) {
    // Task departures.
    while (!endings.empty() && endings.front().first <= now) {
      std::pop_heap(endings.begin(), endings.end(), cmp);
      UnhostVm(world, endings.back().second);
      world.vms[endings.back().second].active = false;
      endings.pop_back();
    }
    // Arrivals (including retries).
    arriving.clear();
    std::swap(arriving, pending);
    while (next_arrival < by_start.size() &&
           trace.tasks[by_start[next_arrival]].start <= now) {
      arriving.push_back(by_start[next_arrival]);
      ++next_arrival;
    }
    for (std::uint32_t vm_idx : arriving) {
      const TraceTask& task = trace.tasks[vm_idx];
      if (task.end <= now) {
        continue;  // expired while waiting
      }
      int host = PlaceVm(world, task, policy);
      if (host < 0) {
        if (WakeOne(world, config) >= 0) {
          ++result.wakeups;
          host = PlaceVm(world, task, policy);
        }
      }
      if (host < 0) {
        ++result.delayed_placements;
        pending.push_back(vm_idx);  // retry next step
        continue;
      }
      const double local = std::min(InitialLocal(policy, task),
                                    1.0 - world.servers[host].local_mem -
                                        world.servers[host].lent_mem);
      HostVm(world, host, vm_idx, task, std::max(local, 0.0), policy, config);
      endings.emplace_back(task.end, vm_idx);
      std::push_heap(endings.begin(), endings.end(), cmp);
    }
    // Periodic consolidation.
    if (now >= next_consolidation) {
      Consolidate(world, policy, config);
      next_consolidation += config.consolidation_period;
    }
    // Energy accounting for this step.
    std::size_t suspended = 0;
    std::size_t active = 0;
    double step_percent = 0.0;
    for (const auto& s : world.servers) {
      step_percent += ServerPowerPercent(s, profile);
      if (s.state != acpi::SleepState::kS0) {
        ++suspended;
      } else {
        ++active;
      }
    }
    // Oasis memory servers.
    const auto mem_servers = static_cast<std::size_t>(
        std::ceil(world.parked_total / config.memory_server_capacity - 1e-9));
    step_percent +=
        static_cast<double>(mem_servers) * config.memory_server_power_fraction * 100.0;
    result.memory_servers_peak = std::max(result.memory_servers_peak, mem_servers);
    result.suspended_peak = std::max(result.suspended_peak, suspended);
    const double step_units = step_percent / 100.0 * ToSeconds(config.step) / 3600.0;
    result.energy_units += step_units;
    // Footnote 1: cooling tracks dissipated heat through a load-dependent
    // partial PUE.
    const double it_load =
        step_percent / 100.0 / static_cast<double>(trace.config.servers);
    result.facility_energy_units += FacilityEnergy(step_units, it_load);
    active_server_steps += static_cast<double>(active);
    ++steps;
  }

  result.migrations = world.migrations;
  result.mean_active_servers = steps == 0 ? 0.0 : active_server_steps / static_cast<double>(steps);
  return result;
}

std::vector<DcResult> RunAllPolicies(const Trace& trace, const acpi::MachineProfile& profile,
                                     const DcConfig& config) {
  std::vector<DcResult> results;
  for (Policy p : {Policy::kAlwaysOn, Policy::kNeat, Policy::kOasis, Policy::kZombieStack}) {
    results.push_back(RunPolicy(trace, p, profile, config));
  }
  const double baseline = results.front().energy_units;
  const double facility_baseline = results.front().facility_energy_units;
  for (auto& r : results) {
    r.saving_percent = baseline <= 0.0 ? 0.0 : 100.0 * (baseline - r.energy_units) / baseline;
    r.facility_saving_percent =
        facility_baseline <= 0.0
            ? 0.0
            : 100.0 * (facility_baseline - r.facility_energy_units) / facility_baseline;
  }
  return results;
}

}  // namespace zombie::sim
