#include "src/acpi/ospm.h"

namespace zombie::acpi {

Result<SleepState> Ospm::WriteSysPowerState(std::string_view keyword) {
  call_trace_.clear();
  Trace(std::string("echo ") + std::string(keyword) + " > /sys/power/state");
  const auto state = SleepStateFromKeyword(keyword);
  if (!state.has_value()) {
    return Status(ErrorCode::kInvalidArgument,
                  "unknown /sys/power/state keyword: " + std::string(keyword));
  }
  if (*state == SleepState::kS0) {
    return Status(ErrorCode::kInvalidArgument, "cannot suspend to S0");
  }
  if (current_state_ != SleepState::kS0) {
    return Status(ErrorCode::kFailedPrecondition, "machine is already suspended");
  }
  return PmSuspend(*state);
}

Result<SleepState> Ospm::PmSuspend(SleepState target) {
  Trace("pm_suspend");
  return EnterState(target);
}

Result<SleepState> Ospm::EnterState(SleepState target) {
  Trace("enter_state");
  Trace("suspend_prepare");
  // The zombie signal: freeze userspace, then let the remote-mem-mgr
  // delegate free memory before devices go down.
  if (target == SleepState::kSz && pre_zombie_hook_) {
    pre_zombie_hook_();
  }
  return SuspendDevicesAndEnter(target);
}

Result<SleepState> Ospm::SuspendDevicesAndEnter(SleepState target) {
  Trace("suspend_devices_and_enter");
  devices_->SuspendAll(target);
  return SuspendEnter(target);
}

Result<SleepState> Ospm::SuspendEnter(SleepState target) {
  Trace("suspend_enter");
  return AcpiSuspendEnter(target);
}

Result<SleepState> Ospm::AcpiSuspendEnter(SleepState target) {
  Trace("acpi_suspend_enter");
  Trace("x86_acpi_suspend_lowlevel");
  Trace("do_suspend_lowlevel");
  return X86AcpiEnterSleepState(target);
}

Result<SleepState> Ospm::X86AcpiEnterSleepState(SleepState target) {
  Trace("x86_acpi_enter_sleep_state");
  return AcpiHwLegacySleep(target);
}

Result<SleepState> Ospm::AcpiHwLegacySleep(SleepState target) {
  Trace("acpi_hw_legacy_sleep");  // modified function (Fig. 6, red)
  Trace("acpi_os_prepare_sleep");
  Trace("tboot_sleep");  // modified function (Fig. 6, red)

  // The real activation: write SLP_TYP|SLP_EN into PM1A and PM1B.
  const std::uint16_t value = Pm1Block::ComposeWrite(target);
  firmware_->pm1().pm1a.Write(value);
  firmware_->pm1().pm1b.Write(value);
  auto result = firmware_->LatchAndSleep();
  if (!result.ok()) {
    // Roll devices back so the machine stays usable.
    devices_->ResumeAll();
    return result;
  }
  current_state_ = result.value();
  return result;
}

SleepState Ospm::Wake() {
  if (current_state_ == SleepState::kS0) {
    return SleepState::kS0;
  }
  const SleepState from = current_state_;
  firmware_->Wake();
  devices_->ResumeAll();
  current_state_ = SleepState::kS0;
  return from;
}

}  // namespace zombie::acpi
