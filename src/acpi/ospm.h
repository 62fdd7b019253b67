// The OS Power Management (OSPM) framework — the kernel side of the Sz
// prototype (Section 3.1, Fig. 6).
//
// Mirrors the Linux suspend path:
//   echo zom > /sys/power/state
//     pm_suspend -> enter_state -> suspend_prepare
//     -> suspend_devices_and_enter -> suspend_enter -> acpi_suspend_enter
//     -> x86_acpi_suspend_lowlevel -> do_suspend_lowlevel
//     -> x86_acpi_enter_sleep_state -> acpi_hw_legacy_sleep
//     -> acpi_os_prepare_sleep -> tboot_sleep
// The functions marked "+" in the paper's Fig. 6 (the sysfs keyword,
// acpi_hw_legacy_sleep and tboot_sleep) carry the zombie modifications.
// Every call is recorded in a trace so tests can assert the exact path.
#ifndef ZOMBIELAND_SRC_ACPI_OSPM_H_
#define ZOMBIELAND_SRC_ACPI_OSPM_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/acpi/device.h"
#include "src/acpi/firmware.h"
#include "src/acpi/sleep_state.h"
#include "src/common/result.h"

namespace zombie::acpi {

class Ospm {
 public:
  Ospm(DeviceTree* devices, Firmware* firmware) : devices_(devices), firmware_(firmware) {}

  // The sysfs entry point: accepts "mem", "disk", "zom", ...  Returns the
  // state entered.  The machine is left suspended; call Wake() to resume.
  [[nodiscard]] Result<SleepState> WriteSysPowerState(std::string_view keyword);

  // Wake path (triggered by WoL or the platform).  Returns the state we woke
  // from.  No-op when already in S0.
  SleepState Wake();

  SleepState current_state() const { return current_state_; }

  // Hook invoked early in an Sz transition, before devices suspend.  The
  // remote-mem-mgr registers here so it can delegate memory ("When a
  // server's OS receives the suspend to Sz signal, it signals its
  // remote-mem-mgr to trigger memory delegation", Section 4.3).
  void set_pre_zombie_hook(std::function<void()> hook) { pre_zombie_hook_ = std::move(hook); }

  // Call trace of the last transition (function names as in Fig. 6).
  const std::vector<std::string>& call_trace() const { return call_trace_; }

 private:
  [[nodiscard]] Result<SleepState> PmSuspend(SleepState target);
  [[nodiscard]] Result<SleepState> EnterState(SleepState target);
  [[nodiscard]] Result<SleepState> SuspendDevicesAndEnter(SleepState target);
  [[nodiscard]] Result<SleepState> SuspendEnter(SleepState target);
  [[nodiscard]] Result<SleepState> AcpiSuspendEnter(SleepState target);
  [[nodiscard]] Result<SleepState> X86AcpiEnterSleepState(SleepState target);
  [[nodiscard]] Result<SleepState> AcpiHwLegacySleep(SleepState target);

  void Trace(std::string_view fn) { call_trace_.emplace_back(fn); }

  DeviceTree* devices_;
  Firmware* firmware_;
  SleepState current_state_ = SleepState::kS0;
  std::function<void()> pre_zombie_hook_;
  std::vector<std::string> call_trace_;
};

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_OSPM_H_
