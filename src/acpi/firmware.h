// Platform firmware: latches PM1 register writes and sequences S-state
// transitions on the power plane (Section 3.1).
//
// During boot the firmware initialises the Sz chipset configuration; during
// each Sz enter/exit it transitions individual devices to their target
// S-states and (on exit) passes control back to the OS.
#ifndef ZOMBIELAND_SRC_ACPI_FIRMWARE_H_
#define ZOMBIELAND_SRC_ACPI_FIRMWARE_H_

#include <optional>

#include "src/acpi/power_domain.h"
#include "src/acpi/registers.h"
#include "src/acpi/sleep_state.h"
#include "src/common/result.h"
#include "src/common/units.h"

namespace zombie::acpi {

// Transition latencies of the testbed-class machines (enter, exit).  Values
// follow commodity-server magnitudes; Sz tracks S3 ("similar to
// suspend-to-RAM in latency").
struct TransitionLatencies {
  Duration s3_enter = 3 * kSecond;
  Duration s3_exit = 4 * kSecond;
  Duration s4_enter = 12 * kSecond;
  Duration s4_exit = 25 * kSecond;
  Duration s5_exit = 90 * kSecond;  // full boot
  Duration sz_enter = 3 * kSecond;  // same path as S3 plus keep-up work
  Duration sz_exit = 4 * kSecond;

  Duration EnterLatency(SleepState s) const;
  Duration ExitLatency(SleepState s) const;
};

class Firmware {
 public:
  explicit Firmware(PowerPlane* plane) : plane_(plane) {}

  // Boot-time chipset initialisation.  On Sz-capable boards this programs
  // the extra rail switches; returns false if Sz was requested on a legacy
  // board config.
  void InitChipset();
  bool sz_configured() const { return sz_configured_; }

  Pm1Block& pm1() { return pm1_; }

  // OSPM writes SLP_TYP|SLP_EN here (both registers, as on real hardware).
  // If the write enables sleep and both registers agree, the firmware
  // sequences the transition.  Returns the state entered.
  [[nodiscard]] Result<SleepState> LatchAndSleep();

  // Wake path: re-initialises the chipset state and re-opens rails for S0.
  void Wake();

  const TransitionLatencies& latencies() const { return latencies_; }
  SleepState platform_state() const { return platform_state_; }

 private:
  PowerPlane* plane_;
  Pm1Block pm1_;
  TransitionLatencies latencies_;
  SleepState platform_state_ = SleepState::kS0;
  bool sz_configured_ = false;
};

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_FIRMWARE_H_
