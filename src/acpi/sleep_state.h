// ACPI global sleep states, extended with the paper's zombie (Sz) state.
//
// S0  — working.  S1/S2 — light sleep (unused by the paper, modelled for
// completeness).  S3 — suspend-to-RAM (RAM in self-refresh, WoL NIC alive).
// S4 — suspend-to-disk.  S5 — soft off.
// Sz  — zombie: like S3 but RAM stays in *active idle* and the Infiniband
// card + its PCIe path stay powered so remote RDMA access works with the
// CPU complex fully off (Section 3 of the paper).
#ifndef ZOMBIELAND_SRC_ACPI_SLEEP_STATE_H_
#define ZOMBIELAND_SRC_ACPI_SLEEP_STATE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace zombie::acpi {

enum class SleepState : std::uint8_t {
  kS0 = 0,
  kS1 = 1,
  kS2 = 2,
  kS3 = 3,
  kS4 = 4,
  kS5 = 5,
  kSz = 6,  // zombie: CPU-dead, memory-alive
};

// Device power states (ACPI D-states).
enum class DeviceState : std::uint8_t {
  kD0 = 0,       // fully on
  kD1 = 1,
  kD2 = 2,
  kD3Hot = 3,    // off, power still applied (can self-wake)
  kD3Cold = 4,   // off, no power
};

std::string_view SleepStateName(SleepState s);
std::string_view DeviceStateName(DeviceState d);

// The /sys/power/state keyword for each reachable state ("freeze", "mem",
// "disk", plus the paper's new "zom" keyword from Fig. 6 line 1).
std::string_view SysPowerKeyword(SleepState s);
// Reverse mapping; returns nullopt for unknown keywords.
std::optional<SleepState> SleepStateFromKeyword(std::string_view keyword);

// True for states where the platform serves remote memory (only Sz, plus S0
// where an *active* server may also lend memory at the protocol layer).
constexpr bool MemoryRemotelyAccessible(SleepState s) {
  return s == SleepState::kS0 || s == SleepState::kSz;
}

// Fraction of a zombie's free RAM it delegates to the remote pool; the rest
// covers kernel/firmware state kept in RAM.  The rack model and the
// datacenter replay both lend this share.
inline constexpr double kSzDelegateFraction = 0.9;

// True for states the OS can be woken from via Wake-on-LAN.
constexpr bool WakeCapable(SleepState s) {
  return s == SleepState::kS3 || s == SleepState::kS4 || s == SleepState::kSz;
}

// True when the CPU complex is powered (instructions execute).
constexpr bool CpuPowered(SleepState s) {
  return s == SleepState::kS0 || s == SleepState::kS1 || s == SleepState::kS2;
}

}  // namespace zombie::acpi

#endif  // ZOMBIELAND_SRC_ACPI_SLEEP_STATE_H_
