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

// Exit (wake) latencies of the testbed-class machines.  Values follow
// commodity-server magnitudes; Sz tracks S3 ("similar to suspend-to-RAM in
// latency").
inline constexpr Duration kS3ExitLatency = 4 * kSecond;
inline constexpr Duration kS4ExitLatency = 25 * kSecond;
inline constexpr Duration kS5ExitLatency = 90 * kSecond;  // full boot
inline constexpr Duration kSzExitLatency = kS3ExitLatency;

// The wake latency out of `s` (0 for S0).
Duration ExitLatency(SleepState s);

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

 private:
  PowerPlane* plane_;
  Pm1Block pm1_;
  bool sz_configured_ = false;
};

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_FIRMWARE_H_
