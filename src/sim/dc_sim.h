// Datacenter-scale energy simulation (Section 6.6.2, Fig. 10).
//
// Replays a (synthetic) cluster trace against four resource-management
// policies and accounts energy with the Table-3 machine profiles:
//
//  * kAlwaysOn     — no consolidation; every server stays in S0.  This is
//                    the baseline the savings percentages are computed from.
//  * kNeat         — OpenStack-Neat consolidation: drain underloaded hosts
//                    (actual CPU at most sim::kUnderloadCpu), suspend the
//                    emptied ones to S3; a moved VM needs its full booking
//                    locally.
//  * kOasis        — Neat plus partial migration of idle VMs: only the WSS
//                    moves; cold memory parks on dedicated memory servers
//                    drawing 40% of a regular server.
//  * kZombieStack  — consolidation with remote memory: a moved VM needs only
//                    sim::kWssLocalFraction of its WSS locally, the rest
//                    lives in zombie buffers; emptied hosts enter Sz and
//                    keep serving their RAM.
//
// The three consolidating policies share one planner (sim/consolidation.h);
// they differ only in the local memory a moved VM needs and in the sleep
// state an emptied host enters.  This file executes the plan and wakes a
// suspended host when an arrival fits nowhere.
#ifndef ZOMBIELAND_SRC_SIM_DC_SIM_H_
#define ZOMBIELAND_SRC_SIM_DC_SIM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/common/units.h"
#include "src/sim/trace.h"

namespace zombie::sim {

enum class Policy : std::uint8_t {
  kAlwaysOn = 0,
  kNeat,
  kOasis,
  kZombieStack,
};

std::string_view PolicyName(Policy p);

// The replay's accounting step and consolidation round period.
inline constexpr Duration kDcStep = 5 * kMinute;
inline constexpr Duration kConsolidationPeriod = 1 * kHour;
// Oasis memory servers: power as a fraction of a regular server, and
// capacity in server-memory units.
inline constexpr double kMemoryServerPowerFraction = 0.40;
inline constexpr double kMemoryServerCapacity = 4.0;

struct DcResult {
  Policy policy = Policy::kAlwaysOn;
  double energy_units = 0.0;       // integral of (percent-of-max / 100) over
                                   // steps, in server-hours of Emax
  double saving_percent = 0.0;     // vs the kAlwaysOn baseline (same trace)
  std::size_t suspended_peak = 0;  // most servers simultaneously off/zombie
  std::size_t migrations = 0;
  std::size_t memory_servers_peak = 0;  // Oasis only
  double mean_active_servers = 0.0;
  // The cost of consolidation: server wake-ups triggered by arrivals that
  // found no awake capacity, and the task placements delayed by them.
  std::size_t wakeups = 0;
  std::size_t delayed_placements = 0;
  // Facility-level energy including cooling (footnote 1): IT energy times a
  // load-dependent partial PUE.
  double facility_energy_units = 0.0;
  double facility_saving_percent = 0.0;
};

// Runs one policy over the trace.  Deterministic.
DcResult RunPolicy(const Trace& trace, Policy policy, const acpi::MachineProfile& profile);

// Runs all four policies and fills saving_percent against kAlwaysOn.
std::vector<DcResult> RunAllPolicies(const Trace& trace, const acpi::MachineProfile& profile);

}  // namespace zombie::sim

#endif  // ZOMBIELAND_SRC_SIM_DC_SIM_H_
