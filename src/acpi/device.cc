#include "src/acpi/device.h"

#include <algorithm>

namespace zombie::acpi {

DeviceState AcpiDevice::PmSuspend(SleepState target) {
  if (target == SleepState::kSz && keep_up_in_zombie_) {
    // The zombie patch: pm_suspend() for the IB card and its PCIe devices
    // "has been modified in order to prevent them from transitioning to the
    // sleep state".
    ++skipped_suspends_;
    return state_;  // stays in D0
  }
  if (on_suspend_) {
    on_suspend_(target);
  }
  // Wake-capable devices park in D3hot so they can still signal; others go
  // to D3cold with their rail.
  state_ = wake_capable_ ? DeviceState::kD3Hot : DeviceState::kD3Cold;
  return state_;
}

void AcpiDevice::PmResume() {
  if (state_ == DeviceState::kD0) {
    return;
  }
  state_ = DeviceState::kD0;
  if (on_resume_) {
    on_resume_();
  }
}

DeviceTree::DeviceTree() = default;

AcpiDevice& DeviceTree::Add(std::string name, Component component, bool wake_capable) {
  devices_.push_back(std::make_unique<AcpiDevice>(std::move(name), component, wake_capable));
  return *devices_.back();
}

AcpiDevice* DeviceTree::Find(const std::string& name) {
  for (auto& d : devices_) {
    if (d->name() == name) {
      return d.get();
    }
  }
  return nullptr;
}

DeviceTree DeviceTree::StandardServer() {
  DeviceTree tree;
  tree.Add("cpu0", Component::kCpuComplex, /*wake_capable=*/false);
  tree.Add("dimm-bank", Component::kDram, /*wake_capable=*/false);
  tree.Add("pcie-root", Component::kPciePath, /*wake_capable=*/false);
  tree.Add("mlx4_core", Component::kIbNic, /*wake_capable=*/true);  // ConnectX-3, MLNX_OFED
  tree.Add("sata0", Component::kStorage, /*wake_capable=*/false);
  // The Sz keep-up set: the IB card and its associated PCIe devices.
  tree.Find("mlx4_core")->set_keep_up_in_zombie(true);
  tree.Find("pcie-root")->set_keep_up_in_zombie(true);
  tree.Find("dimm-bank")->set_keep_up_in_zombie(true);
  return tree;
}

void DeviceTree::SuspendAll(SleepState target) {
  for (auto it = devices_.rbegin(); it != devices_.rend(); ++it) {
    (*it)->PmSuspend(target);
  }
}

void DeviceTree::ResumeAll() {
  for (auto& d : devices_) {
    d->PmResume();
  }
}

}  // namespace zombie::acpi
