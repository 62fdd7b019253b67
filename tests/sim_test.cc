// Tests for the datacenter simulation: trace generation (original and
// modified shapes) and the Fig. 10 policy comparison invariants.
#include <gtest/gtest.h>

#include "src/acpi/energy_model.h"
#include "src/sim/dc_sim.h"
#include "src/sim/trace.h"

namespace zombie::sim {
namespace {

TraceConfig SmallTrace() {
  TraceConfig config;
  config.seed = 99;
  config.servers = 40;
  config.tasks = 600;
  config.horizon = 12 * kHour;
  config.target_cpu_load = 0.35;
  return config;
}

TEST(Trace, DeterministicForSameSeed) {
  const Trace a = GenerateTrace(SmallTrace());
  const Trace b = GenerateTrace(SmallTrace());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start);
    EXPECT_EQ(a.tasks[i].booked_mem, b.tasks[i].booked_mem);
  }
}

TEST(Trace, TasksWellFormed) {
  const Trace trace = GenerateTrace(SmallTrace());
  EXPECT_EQ(trace.tasks.size(), 600u);
  for (const auto& task : trace.tasks) {
    EXPECT_GT(task.end, task.start);
    EXPECT_GT(task.booked_cpu, 0.0);
    EXPECT_LE(task.booked_cpu, 1.0);
    EXPECT_GT(task.booked_mem, 0.0);
    EXPECT_LE(task.booked_mem, 1.0);
    EXPECT_GE(task.cpu_usage_ratio, 0.0);
    EXPECT_LE(task.cpu_usage_ratio, 1.0);
  }
}

TEST(Trace, LoadNearTarget) {
  const Trace trace = GenerateTrace(SmallTrace());
  // Sample mid-horizon booked CPU: should be within a factor of ~2 of target.
  const double booked = trace.BookedCpuAt(6 * kHour);
  const double target = 0.35 * 40;
  EXPECT_GT(booked, target * 0.4);
  EXPECT_LT(booked, target * 2.5);
}

TEST(Trace, ModifiedTransformPinsMemoryToTwiceCpu) {
  const Trace base = GenerateTrace(SmallTrace());
  const Trace modified = WithMemoryRatio(base, 2.0);
  ASSERT_EQ(base.tasks.size(), modified.tasks.size());
  int capped = 0;
  for (std::size_t i = 0; i < base.tasks.size(); ++i) {
    if (modified.tasks[i].booked_mem >= 1.0 - 1e-12) {
      ++capped;
      continue;
    }
    // The paper's transform: memory demand is exactly twice the CPU demand.
    EXPECT_NEAR(modified.tasks[i].booked_mem, 2.0 * modified.tasks[i].booked_cpu, 1e-9);
  }
  // The cap at one server's memory applies to some, not all.
  EXPECT_LT(capped, static_cast<int>(base.tasks.size()));
  // Aggregate memory demand exceeds the original shape's.
  EXPECT_GT(modified.BookedMemAt(6 * kHour), 1.2 * base.BookedMemAt(6 * kHour));
}

class DcSimTest : public ::testing::Test {
 protected:
  DcSimTest()
      : trace_(GenerateTrace(SmallTrace())),
        profile_(acpi::MachineProfile::HpCompaqElite8300()) {}

  Trace trace_;
  acpi::MachineProfile profile_;
};

TEST_F(DcSimTest, AlwaysOnIsTheMostExpensive) {
  const auto results = RunAllPolicies(trace_, profile_);
  ASSERT_EQ(results.size(), 4u);
  const auto& baseline = results[0];
  EXPECT_EQ(baseline.policy, Policy::kAlwaysOn);
  EXPECT_NEAR(baseline.saving_percent, 0.0, 1e-9);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i].energy_units, baseline.energy_units)
        << PolicyName(results[i].policy);
    EXPECT_GT(results[i].saving_percent, 0.0);
  }
}

TEST_F(DcSimTest, ZombieStackBeatsNeatAndOasis) {
  // Fig. 10's headline ordering: ZombieStack > Oasis > Neat savings.
  const auto results = RunAllPolicies(trace_, profile_);
  const double neat = results[1].saving_percent;
  const double oasis = results[2].saving_percent;
  const double zombie = results[3].saving_percent;
  EXPECT_GT(zombie, oasis);
  EXPECT_GE(oasis, neat - 1.0);  // Oasis >= Neat (within noise)
}

TEST_F(DcSimTest, ModifiedTraceAmplifiesZombieAdvantage) {
  // Fig. 10 bottom: with memory demand at 2x CPU, the gap between
  // ZombieStack and the others widens.
  const Trace modified = WithMemoryRatio(trace_, 2.0);
  const auto original = RunAllPolicies(trace_, profile_);
  const auto doubled = RunAllPolicies(modified, profile_);
  const double gap_original = original[3].saving_percent - original[1].saving_percent;
  const double gap_modified = doubled[3].saving_percent - doubled[1].saving_percent;
  EXPECT_GT(gap_modified, gap_original);
  // And ZombieStack still wins outright.
  EXPECT_GT(doubled[3].saving_percent, doubled[2].saving_percent);
}

TEST_F(DcSimTest, SuspendedServersOnlyUnderConsolidation) {
  const auto always_on = RunPolicy(trace_, Policy::kAlwaysOn, profile_);
  EXPECT_EQ(always_on.suspended_peak, 0u);
  const auto zombie = RunPolicy(trace_, Policy::kZombieStack, profile_);
  EXPECT_GT(zombie.suspended_peak, 0u);
  EXPECT_GT(zombie.migrations, 0u);
  EXPECT_LT(zombie.mean_active_servers, 40.0);
}

TEST_F(DcSimTest, OasisUsesMemoryServers) {
  const auto oasis = RunPolicy(trace_, Policy::kOasis, profile_);
  EXPECT_GT(oasis.memory_servers_peak, 0u);
  const auto neat = RunPolicy(trace_, Policy::kNeat, profile_);
  EXPECT_EQ(neat.memory_servers_peak, 0u);
}

TEST_F(DcSimTest, DeterministicAcrossRuns) {
  const auto a = RunPolicy(trace_, Policy::kZombieStack, profile_);
  const auto b = RunPolicy(trace_, Policy::kZombieStack, profile_);
  EXPECT_DOUBLE_EQ(a.energy_units, b.energy_units);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST_F(DcSimTest, SavingsHoldOnBothMachineProfiles) {
  for (const auto& profile :
       {acpi::MachineProfile::HpCompaqElite8300(), acpi::MachineProfile::DellPrecisionT5810()}) {
    const auto results = RunAllPolicies(trace_, profile);
    EXPECT_GT(results[3].saving_percent, results[1].saving_percent) << profile.name();
  }
}

}  // namespace
}  // namespace zombie::sim
