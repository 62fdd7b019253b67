#include "src/acpi/firmware.h"

namespace zombie::acpi {

Duration TransitionLatencies::EnterLatency(SleepState s) const {
  switch (s) {
    case SleepState::kS3:
      return s3_enter;
    case SleepState::kS4:
      return s4_enter;
    case SleepState::kSz:
      return sz_enter;
    case SleepState::kS5:
      return s4_enter;  // shutdown path, disk flush dominated
    default:
      return 0;
  }
}

Duration TransitionLatencies::ExitLatency(SleepState s) const {
  switch (s) {
    case SleepState::kS3:
      return s3_exit;
    case SleepState::kS4:
      return s4_exit;
    case SleepState::kSz:
      return sz_exit;
    case SleepState::kS5:
      return s5_exit;
    default:
      return 0;
  }
}

void Firmware::InitChipset() {
  sz_configured_ = plane_->sz_capable();
}

Result<SleepState> Firmware::LatchAndSleep() {
  const auto requested = pm1_.RequestedState();
  if (!requested.has_value()) {
    return Status(ErrorCode::kInvalidArgument,
                  "PM1A/PM1B inconsistent or SLP_EN not set on both registers");
  }
  const SleepState target = *requested;
  if (target == SleepState::kSz && !sz_configured_) {
    return Status(ErrorCode::kFailedPrecondition, "board lacks Sz power-domain switches");
  }
  if (!plane_->ApplyState(target)) {
    return Status(ErrorCode::kFailedPrecondition, "power plane refused state transition");
  }
  platform_state_ = target;
  pm1_.pm1a.ClearSlpEn();
  pm1_.pm1b.ClearSlpEn();
  return target;
}

void Firmware::Wake() {
  // Re-initialise chipset state, reopen every rail, hand control to the OS.
  plane_->ApplyState(SleepState::kS0);
  platform_state_ = SleepState::kS0;
}

}  // namespace zombie::acpi
