#include "src/sim/dc_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/acpi/sleep_state.h"
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

// Lightweight per-server state for the large-scale replay.  Resources are in
// server units: cpu/memory in [0, 1] per server.
struct SimServer {
  acpi::SleepState state = acpi::SleepState::kS0;
  double booked_cpu = 0.0;       // sum of hosted VMs' booked CPU
  double used_cpu = 0.0;         // sum of booked * usage_ratio (actual load)
  double local_mem = 0.0;        // memory held locally by hosted VMs
  double lent_mem = 0.0;         // delegated to the zombie pool
  std::vector<std::uint32_t> vms;  // dense VM indices
};

struct SimVm {
  const TraceTask* task = nullptr;
  int host = -1;
  bool active = false;      // currently placed in the cluster
  double local_mem = 0.0;   // local share on its host
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

// Required local memory for placing a task under a policy.
double RequiredLocal(Policy policy, const TraceTask& task, const DcConfig& config,
                     bool consolidation_move) {
  switch (policy) {
    case Policy::kAlwaysOn:
    case Policy::kNeat:
      return task.booked_mem;
    case Policy::kOasis:
      return task.booked_mem;  // initial placement is full; parking happens later
    case Policy::kZombieStack:
      // Initial placement: 50% of reserved locally (Section 5.1).  During
      // consolidation: 30% of the WSS (Section 5.2).
      return consolidation_move ? config.wss_local_fraction * WssOf(task)
                                : 0.5 * task.booked_mem;
  }
  return task.booked_mem;
}

bool Fits(const SimServer& server, const TraceTask& task, double local_needed) {
  return server.state == acpi::SleepState::kS0 &&
         server.booked_cpu + task.booked_cpu <= 1.0 + 1e-9 &&
         server.local_mem + local_needed <= 1.0 - server.lent_mem + 1e-9;
}

void HostVm(World& world, int host, std::uint32_t vm_idx, const TraceTask& task,
            double local_mem, Policy policy) {
  SimServer& server = world.servers[host];
  server.booked_cpu += task.booked_cpu;
  server.used_cpu += task.booked_cpu * task.cpu_usage_ratio;
  server.local_mem += local_mem;
  server.vms.push_back(vm_idx);
  SimVm& vm = world.vms[vm_idx];
  vm.task = &task;
  vm.host = host;
  vm.active = true;
  vm.local_mem = local_mem;
  const double remote = task.booked_mem - local_mem - vm.parked_mem;
  if (policy == Policy::kZombieStack && remote > 1e-12) {
    vm.remote_mem = remote;
    world.zombie_pool_free -= remote;
  } else {
    vm.remote_mem = 0.0;
  }
}

void UnhostVm(World& world, std::uint32_t vm_idx) {
  SimVm& vm = world.vms[vm_idx];
  if (!vm.active) {
    return;
  }
  if (vm.host >= 0) {
    SimServer& server = world.servers[vm.host];
    server.booked_cpu = std::max(0.0, server.booked_cpu - vm.task->booked_cpu);
    server.used_cpu =
        std::max(0.0, server.used_cpu - vm.task->booked_cpu * vm.task->cpu_usage_ratio);
    server.local_mem = std::max(0.0, server.local_mem - vm.local_mem);
    server.vms.erase(std::remove(server.vms.begin(), server.vms.end(), vm_idx),
                     server.vms.end());
  }
  world.zombie_pool_free += vm.remote_mem;
  world.parked_total = std::max(0.0, world.parked_total - vm.parked_mem);
  vm.host = -1;
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

int PlaceVm(World& world, const TraceTask& task, Policy policy, const DcConfig& config) {
  const double local_needed = RequiredLocal(policy, task, config, false);
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

void SuspendEmpty(World& world, Policy policy, const DcConfig& config) {
  for (auto& s : world.servers) {
    if (s.state != acpi::SleepState::kS0 || !s.vms.empty()) {
      continue;
    }
    if (policy == Policy::kZombieStack) {
      s.state = acpi::SleepState::kSz;
      s.lent_mem = (1.0 - s.local_mem) * config.delegate_fraction;
      world.zombie_pool_free += s.lent_mem;
    } else if (policy == Policy::kNeat || policy == Policy::kOasis) {
      s.state = acpi::SleepState::kS3;
    }
  }
}

// One consolidation round (Neat's four steps, specialised per policy).
void Consolidate(World& world, Policy policy, const DcConfig& config) {
  if (policy == Policy::kAlwaysOn) {
    return;
  }
  // Step 1: underloaded hosts by *actual* CPU load.
  std::vector<int> underloaded;
  for (std::size_t i = 0; i < world.servers.size(); ++i) {
    const SimServer& s = world.servers[i];
    if (s.state == acpi::SleepState::kS0 && !s.vms.empty() &&
        s.used_cpu <= config.underload_threshold) {
      underloaded.push_back(static_cast<int>(i));
    }
  }
  // Drain the least-loaded first.
  std::stable_sort(underloaded.begin(), underloaded.end(), [&](int a, int b) {
    return world.servers[a].used_cpu < world.servers[b].used_cpu;
  });

  // Per-host (cpu, mem) deltas of tentative moves: a flat array reset only
  // where written, instead of a fresh std::map per drained host.
  std::vector<std::pair<double, double>> deltas(world.servers.size(), {0.0, 0.0});
  std::vector<int> touched;
  for (int source_idx : underloaded) {
    SimServer& source = world.servers[source_idx];
    // Tentatively find a target for every VM.
    std::vector<std::pair<std::uint32_t, int>> moves;
    bool ok = true;
    for (int host : touched) {
      deltas[host] = {0.0, 0.0};
    }
    touched.clear();
    for (std::uint32_t vm_idx : source.vms) {
      const SimVm& vm = world.vms[vm_idx];
      const TraceTask& task = *vm.task;
      const bool idle = task.cpu_usage_ratio < config.idle_vm_threshold;
      double local_needed;
      if (policy == Policy::kOasis && idle) {
        local_needed = WssOf(task);  // partial migration: only the WSS moves
      } else {
        local_needed = RequiredLocal(policy, task, config, true);
      }
      int target = -1;
      double best_key = -1.0;
      for (std::size_t i = 0; i < world.servers.size(); ++i) {
        if (static_cast<int>(i) == source_idx) {
          continue;
        }
        const SimServer& t = world.servers[i];
        const auto& delta = deltas[i];
        if (t.state != acpi::SleepState::kS0 ||
            t.booked_cpu + delta.first + task.booked_cpu > 1.0 + 1e-9 ||
            t.local_mem + delta.second + local_needed > 1.0 - t.lent_mem + 1e-9) {
          continue;
        }
        if (t.booked_cpu > best_key) {
          best_key = t.booked_cpu;
          target = static_cast<int>(i);
        }
      }
      if (target < 0) {
        ok = false;
        break;
      }
      if (deltas[target] == std::pair<double, double>{0.0, 0.0}) {
        touched.push_back(target);
      }
      deltas[target].first += task.booked_cpu;
      deltas[target].second += local_needed;
      moves.emplace_back(vm_idx, target);
    }
    if (!ok) {
      continue;  // cannot fully drain this host
    }
    // Execute the drain.
    for (const auto& [vm_idx, target] : moves) {
      const TraceTask& task = *world.vms[vm_idx].task;
      const bool idle = task.cpu_usage_ratio < config.idle_vm_threshold;
      UnhostVm(world, vm_idx);
      double local;
      if (policy == Policy::kOasis && idle) {
        local = WssOf(task);
        world.vms[vm_idx].parked_mem = task.booked_mem - local;
        world.parked_total += task.booked_mem - local;
      } else {
        local = RequiredLocal(policy, task, config, true);
        world.vms[vm_idx].parked_mem = 0.0;
      }
      HostVm(world, target, vm_idx, task, local, policy);
      ++world.migrations;
    }
  }
  SuspendEmpty(world, policy, config);
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
      int host = PlaceVm(world, task, policy, config);
      if (host < 0) {
        if (WakeOne(world, config) >= 0) {
          ++result.wakeups;
          host = PlaceVm(world, task, policy, config);
        }
      }
      if (host < 0) {
        ++result.delayed_placements;
        pending.push_back(vm_idx);  // retry next step
        continue;
      }
      const double local = std::min(RequiredLocal(policy, task, config, false),
                                    1.0 - world.servers[host].local_mem -
                                        world.servers[host].lent_mem);
      HostVm(world, host, vm_idx, task, std::max(local, 0.0), policy);
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
