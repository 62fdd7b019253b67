#include "src/acpi/machine.h"

namespace zombie::acpi {

Machine::Machine(std::string hostname, MachineProfile profile, bool sz_capable)
    : hostname_(std::move(hostname)),
      profile_(std::move(profile)),
      plane_(sz_capable),
      firmware_(&plane_),
      devices_(DeviceTree::StandardServer()),
      ospm_(&devices_, &firmware_) {
  firmware_.InitChipset();
}

double Machine::PowerPercentNow() const {
  const SleepState s = ospm_.current_state();
  if (s == SleepState::kS0) {
    return profile_.S0Percent(utilization_);
  }
  return profile_.SleepPercent(s);
}

Status Machine::Suspend(SleepState target) {
  auto result = ospm_.WriteSysPowerState(SysPowerKeyword(target));
  return result.status();
}

Duration Machine::WakeOnLan() {
  const SleepState from = ospm_.current_state();
  if (from == SleepState::kS0) {
    return 0;
  }
  if (!WakeCapable(from)) {
    return 0;  // nothing listening; a real S5 box needs operator power-on
  }
  ospm_.Wake();
  return ExitLatency(from);
}

bool Machine::ServesRemoteMemory() const {
  return plane_.RailEnergised(Component::kDram) && plane_.RailEnergised(Component::kIbNic) &&
         plane_.RailEnergised(Component::kPciePath) &&
         MemoryRemotelyAccessible(ospm_.current_state());
}

}  // namespace zombie::acpi
