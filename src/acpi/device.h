// ACPI devices and their drivers' power-management callbacks.
//
// OSPM suspends devices in reverse discovery order and resumes them forward,
// calling each driver's suspend/resume hook.  The zombie patch marks the
// Infiniband card and its associated PCIe devices as "keep-up": their
// pm_suspend() is skipped during an Sz transition so they keep serving
// inbound RDMA (Section 3.1).
#ifndef ZOMBIELAND_SRC_ACPI_DEVICE_H_
#define ZOMBIELAND_SRC_ACPI_DEVICE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/acpi/power_domain.h"
#include "src/acpi/sleep_state.h"
#include "src/common/units.h"

namespace zombie::acpi {

class AcpiDevice {
 public:
  // `wake_capable` devices may arm a wake signal (e.g. WoL on the NIC).
  AcpiDevice(std::string name, Component component, bool wake_capable)
      : name_(std::move(name)), component_(component), wake_capable_(wake_capable) {}

  const std::string& name() const { return name_; }
  Component component() const { return component_; }
  bool wake_capable() const { return wake_capable_; }
  DeviceState state() const { return state_; }

  // Marks the device as part of the Sz keep-up set (IB card + PCIe path).
  void set_keep_up_in_zombie(bool keep) { keep_up_in_zombie_ = keep; }
  bool keep_up_in_zombie() const { return keep_up_in_zombie_; }

  // Driver hooks (optional).  Called by OSPM around state changes.
  void set_on_suspend(std::function<void(SleepState)> hook) { on_suspend_ = std::move(hook); }
  void set_on_resume(std::function<void()> hook) { on_resume_ = std::move(hook); }

  // OSPM entry points.  Suspend returns the D-state entered.
  DeviceState PmSuspend(SleepState target);
  void PmResume();

  // Number of suspend calls that were skipped because of the keep-up set
  // (observable in tests to validate the Fig. 6 path).
  int skipped_suspends() const { return skipped_suspends_; }

 private:
  std::string name_;
  Component component_;
  bool wake_capable_;
  bool keep_up_in_zombie_ = false;
  DeviceState state_ = DeviceState::kD0;
  std::function<void(SleepState)> on_suspend_;
  std::function<void()> on_resume_;
  int skipped_suspends_ = 0;
};

// The device tree of a zombieland server: CPU complex devices, DIMMs,
// Mellanox IB card (MLNX_OFED driver), PCIe bridges, storage.
class DeviceTree {
 public:
  DeviceTree();

  AcpiDevice& Add(std::string name, Component component, bool wake_capable);

  AcpiDevice* Find(const std::string& name);
  const std::vector<std::unique_ptr<AcpiDevice>>& devices() const { return devices_; }

  // Builds the standard device complement of the paper's testbed machines.
  static DeviceTree StandardServer();

  // Suspends all devices for `target` in reverse order; keep-up devices are
  // skipped when target == Sz.
  void SuspendAll(SleepState target);
  void ResumeAll();

 private:
  std::vector<std::unique_ptr<AcpiDevice>> devices_;
};

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_DEVICE_H_
