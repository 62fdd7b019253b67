// Tests for the cooling (partial-PUE) model plus the DC simulator's
// consolidation-cost metrics.
#include <gtest/gtest.h>

#include "src/sim/cooling.h"
#include "src/sim/dc_sim.h"
#include "src/sim/trace.h"

namespace zombie {
namespace {

// ---------------------------------------------------------------------------
// Cooling model.
// ---------------------------------------------------------------------------

TEST(Cooling, PueGrowsWithLoad) {
  // Staged cooling: overhead per IT watt grows with thermal load, so the
  // lightly-loaded (consolidated) facility cools each remaining watt more
  // cheaply — the footnote-1 amplification.
  EXPECT_LT(sim::PueAt(0.0), sim::PueAt(0.5));
  EXPECT_LT(sim::PueAt(0.5), sim::PueAt(1.0));
  EXPECT_NEAR(sim::PueAt(1.0), 1.35, 1e-9);
  EXPECT_NEAR(sim::PueAt(0.0), 1.10, 1e-9);
  // Clamped outside [0,1].
  EXPECT_DOUBLE_EQ(sim::PueAt(2.0), sim::PueAt(1.0));
  EXPECT_DOUBLE_EQ(sim::PueAt(-1.0), sim::PueAt(0.0));
}

TEST(Cooling, FacilityEnergyScalesWithPue) {
  const double it = 100.0;
  EXPECT_NEAR(sim::FacilityEnergy(it, 1.0), 135.0, 1e-9);
  EXPECT_LT(sim::FacilityEnergy(it, 0.1), sim::FacilityEnergy(it, 0.9));
}

// ---------------------------------------------------------------------------
// DC simulator: facility savings and consolidation cost metrics.
// ---------------------------------------------------------------------------

TEST(DcCooling, FacilitySavingsExceedItSavings) {
  sim::TraceConfig config;
  config.seed = 99;
  config.servers = 40;
  config.tasks = 600;
  config.horizon = 12 * kHour;
  const sim::Trace trace = sim::GenerateTrace(config);
  const auto results =
      sim::RunAllPolicies(trace, acpi::MachineProfile::HpCompaqElite8300());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i].facility_saving_percent, results[i].saving_percent - 0.5)
        << sim::PolicyName(results[i].policy);
    EXPECT_GT(results[i].facility_energy_units, results[i].energy_units);
  }
  // Baseline facility energy uses the PUE too.
  EXPECT_GT(results[0].facility_energy_units, results[0].energy_units);
  EXPECT_NEAR(results[0].facility_saving_percent, 0.0, 1e-9);
}

TEST(DcCooling, ConsolidationCausesWakeupsNotAlwaysOn) {
  sim::TraceConfig config;
  config.seed = 99;
  config.servers = 40;
  config.tasks = 600;
  config.horizon = 12 * kHour;
  const sim::Trace trace = sim::GenerateTrace(config);
  const auto profile = acpi::MachineProfile::HpCompaqElite8300();
  const auto always_on = sim::RunPolicy(trace, sim::Policy::kAlwaysOn, profile);
  EXPECT_EQ(always_on.wakeups, 0u);
  const auto zombie = sim::RunPolicy(trace, sim::Policy::kZombieStack, profile);
  EXPECT_GT(zombie.wakeups, 0u);  // packed tight: arrivals must wake servers
}

}  // namespace
}  // namespace zombie
