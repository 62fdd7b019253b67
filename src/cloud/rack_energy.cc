#include "src/cloud/rack_energy.h"

#include <algorithm>
#include <cmath>

namespace zombie::cloud {

std::string_view ArchitectureName(Architecture a) {
  switch (a) {
    case Architecture::kServerCentric:
      return "server-centric";
    case Architecture::kIdealDisaggregated:
      return "ideal-disaggregated";
    case Architecture::kMicroServers:
      return "micro-servers";
    case Architecture::kZombie:
      return "zombie";
  }
  return "?";
}

namespace {

double ComponentPower(double fraction, double utilization) {
  return fraction * (kIdleScale + (1.0 - kIdleScale) * std::clamp(utilization, 0.0, 1.0));
}

// Full server power at the given cpu/memory utilisation.
double ServerPower(double cpu, double mem) {
  return kOtherFraction + ComponentPower(kCpuBoardFraction, cpu) +
         ComponentPower(kMemBoardFraction, mem);
}

double ServerCentric(const std::vector<SlotDemand>& demand) {
  double total = 0.0;
  for (const auto& slot : demand) {
    if (slot.cpu <= 0.0 && slot.memory <= 0.0) {
      total += kSuspendFraction;  // nothing needed: suspend the server
    } else {
      // Any demand — even memory-only — keeps the whole board powered.
      total += ServerPower(slot.cpu, slot.memory);
    }
  }
  return total;
}

double IdealDisaggregated(const std::vector<SlotDemand>& demand) {
  // Every resource lives on its own board; unused boards power off, used
  // boards are energy-proportional.  One rack-level interconnect/platform
  // share remains.
  double cpu_total = 0.0;
  double mem_total = 0.0;
  for (const auto& slot : demand) {
    cpu_total += slot.cpu;
    mem_total += slot.memory;
  }
  return kCpuBoardFraction * cpu_total + kMemBoardFraction * mem_total + kOtherFraction;
}

double MicroServers(const std::vector<SlotDemand>& demand) {
  // Each slot is N micro-servers of 1/N capacity; a micro-server serving any
  // cpu or memory must be on, the rest suspend.  Memory cannot leave its
  // micro-server, which is exactly the limitation the paper calls out.
  constexpr int n = kMicroserversPerSlot;
  double total = 0.0;
  for (const auto& slot : demand) {
    const double need = std::max(slot.cpu, slot.memory);
    const int on = std::min(n, static_cast<int>(std::ceil(need * n - 1e-9)));
    if (on == 0) {
      total += kSuspendFraction;
      continue;
    }
    const double scale = static_cast<double>(on) / n;
    const double cpu_eff = std::min(1.0, slot.cpu / scale);
    const double mem_eff = std::min(1.0, slot.memory / scale);
    total += scale * ServerPower(cpu_eff, mem_eff);
    total += static_cast<double>(n - on) / n * kSuspendFraction;
  }
  return total;
}

double ZombieRack(const std::vector<SlotDemand>& demand) {
  // Consolidate CPU demand onto the fewest servers; those servers' memory is
  // used first.  Remaining memory demand is served by zombies; servers with
  // neither role suspend to S3.
  double cpu_total = 0.0;
  double mem_total = 0.0;
  for (const auto& slot : demand) {
    cpu_total += slot.cpu;
    mem_total += slot.memory;
  }
  const auto servers = demand.size();
  const auto active = std::min<std::size_t>(
      servers, static_cast<std::size_t>(std::ceil(cpu_total - 1e-9)));
  double total = 0.0;
  double cpu_left = cpu_total;
  double mem_left = mem_total;
  for (std::size_t i = 0; i < active; ++i) {
    const double cpu = std::min(1.0, cpu_left);
    const double mem = std::min(1.0, mem_left);
    total += ServerPower(cpu, mem);
    cpu_left -= cpu;
    mem_left -= mem;
  }
  std::size_t remaining = servers - active;
  // Zombies serve the leftover memory demand.
  while (mem_left > 1e-9 && remaining > 0) {
    total += kZombieFraction;
    mem_left -= 1.0;
    --remaining;
  }
  // Everyone else suspends.
  total += static_cast<double>(remaining) * kSuspendFraction;
  return total;
}

}  // namespace

double RackEnergy(Architecture arch, const std::vector<SlotDemand>& demand) {
  switch (arch) {
    case Architecture::kServerCentric:
      return ServerCentric(demand);
    case Architecture::kIdealDisaggregated:
      return IdealDisaggregated(demand);
    case Architecture::kMicroServers:
      return MicroServers(demand);
    case Architecture::kZombie:
      return ZombieRack(demand);
  }
  return 0.0;
}

std::vector<SlotDemand> Figure4Demand() {
  // Three servers: one busy, one moderately loaded with colder memory, one
  // CPU-idle whose memory is still partly needed (the zombie candidate).
  return {{0.7, 1.0}, {0.3, 0.6}, {0.0, 0.4}};
}

}  // namespace zombie::cloud
