// Unit tests for the ACPI/power substrate: Sz state, power domains,
// registers, firmware, OSPM suspend path (Fig. 6), energy model (Table 3,
// eq. 1), machine behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/acpi/device.h"
#include "src/acpi/energy_model.h"
#include "src/acpi/firmware.h"
#include "src/acpi/machine.h"
#include "src/acpi/ospm.h"
#include "src/acpi/power_domain.h"
#include "src/acpi/power_meter.h"
#include "src/acpi/registers.h"
#include "src/acpi/sleep_state.h"

namespace zombie::acpi {
namespace {

// ---------------------------------------------------------------------------
// Sleep-state basics.
// ---------------------------------------------------------------------------

TEST(SleepState, KeywordRoundTrips) {
  for (auto s : {SleepState::kS0, SleepState::kS1, SleepState::kS2, SleepState::kS3,
                 SleepState::kS4, SleepState::kS5, SleepState::kSz}) {
    const auto back = SleepStateFromKeyword(SysPowerKeyword(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(SleepStateFromKeyword("bogus").has_value());
}

TEST(SleepState, ZombieKeywordIsZom) {
  EXPECT_EQ(SysPowerKeyword(SleepState::kSz), "zom");
}

TEST(SleepState, MemoryAccessibilityMatrix) {
  EXPECT_TRUE(MemoryRemotelyAccessible(SleepState::kS0));
  EXPECT_TRUE(MemoryRemotelyAccessible(SleepState::kSz));
  EXPECT_FALSE(MemoryRemotelyAccessible(SleepState::kS3));
  EXPECT_FALSE(MemoryRemotelyAccessible(SleepState::kS4));
  EXPECT_FALSE(MemoryRemotelyAccessible(SleepState::kS5));
}

TEST(SleepState, WakeCapability) {
  EXPECT_TRUE(WakeCapable(SleepState::kS3));
  EXPECT_TRUE(WakeCapable(SleepState::kSz));
  EXPECT_FALSE(WakeCapable(SleepState::kS0));
  EXPECT_FALSE(WakeCapable(SleepState::kS5));
}

// ---------------------------------------------------------------------------
// Power domains.
// ---------------------------------------------------------------------------

TEST(PowerPlane, S3CutsCpuKeepsDram) {
  PowerPlane plane(/*sz_capable=*/true);
  ASSERT_TRUE(plane.ApplyState(SleepState::kS3));
  EXPECT_FALSE(plane.RailEnergised(Component::kCpuComplex));
  EXPECT_TRUE(plane.RailEnergised(Component::kDram));
  EXPECT_FALSE(plane.RailEnergised(Component::kStorage));
  EXPECT_TRUE(plane.TransitionSettled());
}

TEST(PowerPlane, SzKeepsMemoryAndNicPath) {
  PowerPlane plane(/*sz_capable=*/true);
  ASSERT_TRUE(plane.ApplyState(SleepState::kSz));
  EXPECT_FALSE(plane.RailEnergised(Component::kCpuComplex));
  EXPECT_TRUE(plane.RailEnergised(Component::kDram));
  EXPECT_TRUE(plane.RailEnergised(Component::kIbNic));
  EXPECT_TRUE(plane.RailEnergised(Component::kPciePath));
}

TEST(PowerPlane, LegacyBoardRefusesSz) {
  PowerPlane plane(/*sz_capable=*/false);
  EXPECT_FALSE(plane.ApplyState(SleepState::kSz));
  // Rails untouched: still in S0 configuration.
  EXPECT_TRUE(plane.RailEnergised(Component::kCpuComplex));
  EXPECT_EQ(plane.applied_state(), SleepState::kS0);
}

TEST(PowerPlane, S4OnlyStandbyWell) {
  PowerPlane plane(/*sz_capable=*/true);
  ASSERT_TRUE(plane.ApplyState(SleepState::kS4));
  EXPECT_FALSE(plane.RailEnergised(Component::kDram));
  EXPECT_TRUE(plane.RailEnergised(Component::kIbNic));  // WoL well
  EXPECT_TRUE(plane.RailEnergised(Component::kPlatformBase));
}

TEST(PowerPlane, DescribeListsRails) {
  PowerPlane plane(true);
  plane.ApplyState(SleepState::kSz);
  const std::string desc = plane.Describe();
  EXPECT_NE(desc.find("cpu=off"), std::string::npos);
  EXPECT_NE(desc.find("dram=on"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PM1 registers.
// ---------------------------------------------------------------------------

TEST(Registers, SlpTypRoundTrips) {
  for (auto s : {SleepState::kS0, SleepState::kS3, SleepState::kS4, SleepState::kS5,
                 SleepState::kSz}) {
    const auto back = SleepStateFromSlpTyp(SlpTypFor(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(SleepStateFromSlpTyp(0b111).has_value());
}

TEST(Registers, SzUsesPreviouslyUnusedEncoding) {
  // Sz claims 0b110, distinct from every legacy state.
  for (auto s : {SleepState::kS0, SleepState::kS1, SleepState::kS2, SleepState::kS3,
                 SleepState::kS4, SleepState::kS5}) {
    EXPECT_NE(SlpTypFor(SleepState::kSz), SlpTypFor(s));
  }
}

TEST(Registers, SleepRequiresBothRegistersConsistent) {
  Pm1Block pm1;
  const std::uint16_t value = Pm1Block::ComposeWrite(SleepState::kSz);
  pm1.pm1a.Write(value);
  EXPECT_FALSE(pm1.RequestedState().has_value());  // PM1B not yet written
  pm1.pm1b.Write(value);
  ASSERT_TRUE(pm1.RequestedState().has_value());
  EXPECT_EQ(*pm1.RequestedState(), SleepState::kSz);
}

TEST(Registers, MismatchedSlpTypRejected) {
  Pm1Block pm1;
  pm1.pm1a.Write(Pm1Block::ComposeWrite(SleepState::kS3));
  pm1.pm1b.Write(Pm1Block::ComposeWrite(SleepState::kS4));
  EXPECT_FALSE(pm1.RequestedState().has_value());
}

// ---------------------------------------------------------------------------
// Devices and the keep-up set.
// ---------------------------------------------------------------------------

TEST(DeviceTree, StandardServerHasKeepUpSet) {
  DeviceTree tree = DeviceTree::StandardServer();
  ASSERT_NE(tree.Find("mlx4_core"), nullptr);
  EXPECT_TRUE(tree.Find("mlx4_core")->keep_up_in_zombie());
  EXPECT_TRUE(tree.Find("pcie-root")->keep_up_in_zombie());
  EXPECT_FALSE(tree.Find("cpu0")->keep_up_in_zombie());
}

TEST(DeviceTree, SzSuspendSkipsKeepUpDevices) {
  DeviceTree tree = DeviceTree::StandardServer();
  const auto suspended = tree.SuspendAll(SleepState::kSz);
  // The IB card, PCIe path and DIMMs were not suspended.
  EXPECT_EQ(std::find(suspended.begin(), suspended.end(), "mlx4_core"), suspended.end());
  EXPECT_EQ(tree.Find("mlx4_core")->state(), DeviceState::kD0);
  EXPECT_EQ(tree.Find("mlx4_core")->skipped_suspends(), 1);
  // CPU and storage were.
  EXPECT_NE(std::find(suspended.begin(), suspended.end(), "cpu0"), suspended.end());
  EXPECT_EQ(tree.Find("cpu0")->state(), DeviceState::kD3Cold);
}

TEST(DeviceTree, S3SuspendsEverything) {
  DeviceTree tree = DeviceTree::StandardServer();
  tree.SuspendAll(SleepState::kS3);
  EXPECT_NE(tree.Find("mlx4_core")->state(), DeviceState::kD0);
  // Wake-capable NIC parks in D3hot, not D3cold.
  EXPECT_EQ(tree.Find("mlx4_core")->state(), DeviceState::kD3Hot);
  tree.ResumeAll();
  EXPECT_EQ(tree.Find("mlx4_core")->state(), DeviceState::kD0);
}

TEST(DeviceTree, DriverHooksFire) {
  DeviceTree tree = DeviceTree::StandardServer();
  int suspends = 0;
  int resumes = 0;
  tree.Find("sata0")->set_on_suspend([&](SleepState) { ++suspends; });
  tree.Find("sata0")->set_on_resume([&] { ++resumes; });
  tree.SuspendAll(SleepState::kS3);
  tree.ResumeAll();
  EXPECT_EQ(suspends, 1);
  EXPECT_EQ(resumes, 1);
}

// ---------------------------------------------------------------------------
// OSPM: the Fig. 6 execution path.
// ---------------------------------------------------------------------------

class OspmTest : public ::testing::Test {
 protected:
  OspmTest()
      : plane_(true), firmware_(&plane_), devices_(DeviceTree::StandardServer()),
        ospm_(&devices_, &firmware_) {
    firmware_.InitChipset();
  }

  PowerPlane plane_;
  Firmware firmware_;
  DeviceTree devices_;
  Ospm ospm_;
};

TEST_F(OspmTest, ZombieTransitionFollowsFig6Path) {
  auto result = ospm_.WriteSysPowerState("zom");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), SleepState::kSz);
  EXPECT_EQ(ospm_.current_state(), SleepState::kSz);

  const auto& trace = ospm_.call_trace();
  // The exact call sequence of Fig. 6.
  const std::vector<std::string> expected = {
      "echo zom > /sys/power/state",
      "pm_suspend",
      "enter_state",
      "suspend_prepare",
      "suspend_devices_and_enter",
      "suspend_enter",
      "acpi_suspend_enter",
      "x86_acpi_suspend_lowlevel",
      "do_suspend_lowlevel",
      "x86_acpi_enter_sleep_state",
      "acpi_hw_legacy_sleep",
      "acpi_os_prepare_sleep",
      "tboot_sleep",
  };
  EXPECT_EQ(trace, expected);
}

TEST_F(OspmTest, PreZombieHookFiresBeforeDevicesSuspend) {
  bool hook_fired = false;
  bool nic_was_up_at_hook = false;
  ospm_.set_pre_zombie_hook([&] {
    hook_fired = true;
    nic_was_up_at_hook = devices_.Find("cpu0")->state() == DeviceState::kD0;
  });
  ASSERT_TRUE(ospm_.WriteSysPowerState("zom").ok());
  EXPECT_TRUE(hook_fired);
  EXPECT_TRUE(nic_was_up_at_hook);  // delegation happens while CPU still runs
}

TEST_F(OspmTest, PreZombieHookNotFiredForS3) {
  bool hook_fired = false;
  ospm_.set_pre_zombie_hook([&] { hook_fired = true; });
  ASSERT_TRUE(ospm_.WriteSysPowerState("mem").ok());
  EXPECT_FALSE(hook_fired);
}

TEST_F(OspmTest, WakeRestoresS0) {
  ASSERT_TRUE(ospm_.WriteSysPowerState("zom").ok());
  EXPECT_EQ(ospm_.Wake(), SleepState::kSz);
  EXPECT_EQ(ospm_.current_state(), SleepState::kS0);
  EXPECT_EQ(devices_.Find("cpu0")->state(), DeviceState::kD0);
}

TEST_F(OspmTest, RejectsUnknownKeyword) {
  EXPECT_EQ(ospm_.WriteSysPowerState("hibernate-ish").code(), ErrorCode::kInvalidArgument);
}

TEST_F(OspmTest, RejectsDoubleSuspend) {
  ASSERT_TRUE(ospm_.WriteSysPowerState("mem").ok());
  EXPECT_EQ(ospm_.WriteSysPowerState("zom").code(), ErrorCode::kFailedPrecondition);
}

TEST(OspmLegacy, LegacyBoardFailsZombieAndRollsBack) {
  PowerPlane plane(/*sz_capable=*/false);
  Firmware firmware(&plane);
  firmware.InitChipset();
  DeviceTree devices = DeviceTree::StandardServer();
  Ospm ospm(&devices, &firmware);

  auto result = ospm.WriteSysPowerState("zom");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kFailedPrecondition);
  // Machine still awake and usable; devices resumed.
  EXPECT_EQ(ospm.current_state(), SleepState::kS0);
  EXPECT_EQ(devices.Find("cpu0")->state(), DeviceState::kD0);
  // S3 still works on the same board.
  EXPECT_TRUE(ospm.WriteSysPowerState("mem").ok());
}

// ---------------------------------------------------------------------------
// Energy model: Table 3 and equation (1).
// ---------------------------------------------------------------------------

TEST(EnergyModel, HpTable3RowReproduced) {
  const MachineProfile hp = MachineProfile::HpCompaqElite8300();
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS0WithoutIb), 46.16, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS0IbOff), 52.20, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS0IbOn), 53.84, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS3WithoutIb), 4.23, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS3WithIb), 11.03, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS4WithoutIb), 0.19, 0.01);
  EXPECT_NEAR(hp.ConfigPercent(MeasuredConfig::kS4WithIb), 6.81, 0.01);
}

TEST(EnergyModel, DellTable3RowReproduced) {
  const MachineProfile dell = MachineProfile::DellPrecisionT5810();
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS0WithoutIb), 35.35, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS0IbOff), 42.33, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS0IbOn), 44.77, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS3WithoutIb), 1.97, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS3WithIb), 8.71, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS4WithoutIb), 1.12, 0.01);
  EXPECT_NEAR(dell.ConfigPercent(MeasuredConfig::kS4WithIb), 8.31, 0.01);
}

TEST(EnergyModel, Equation1ReproducesPaperSzEstimates) {
  // Paper Table 3: Sz = 12.67% (HP) and 11.15% (Dell), via equation (1).
  EXPECT_NEAR(MachineProfile::HpCompaqElite8300().SzPercent(), 12.67, 0.01);
  EXPECT_NEAR(MachineProfile::DellPrecisionT5810().SzPercent(), 11.15, 0.01);
}

TEST(EnergyModel, SzModelCorrectionExceedsEq1) {
  // DRAM active-idle draws more than self-refresh, so the component-true
  // estimate sits above the paper's eq. (1).
  const MachineProfile hp = MachineProfile::HpCompaqElite8300();
  EXPECT_GT(hp.SzModelPercent(), hp.SzPercent());
}

TEST(EnergyModel, SzFarBelowIdleAndNearS3) {
  for (const auto& m :
       {MachineProfile::HpCompaqElite8300(), MachineProfile::DellPrecisionT5810()}) {
    EXPECT_LT(m.SzPercent(), 0.3 * m.S0Percent(0.0));       // way below idle S0
    EXPECT_GT(m.SzPercent(), m.SleepPercent(SleepState::kS3));  // slightly above S3
    EXPECT_LT(m.SzPercent() - m.SleepPercent(SleepState::kS3), 5.0);
  }
}

TEST(EnergyModel, S0CurveIsMonotoneAndConcave) {
  const MachineProfile hp = MachineProfile::HpCompaqElite8300();
  double prev = hp.S0Percent(0.0);
  for (double u = 0.1; u <= 1.0001; u += 0.1) {
    const double p = hp.S0Percent(u);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_NEAR(hp.S0Percent(1.0), 100.0, 0.01);
  // Concavity (energy-inefficiency at low load, Fig. 1): power at 50% load
  // exceeds half of the active swing above idle.
  const double idle = hp.S0Percent(0.0);
  EXPECT_GT(hp.S0Percent(0.5) - idle, 0.5 * (hp.S0Percent(1.0) - idle));
}

TEST(EnergyModel, IdealCurveIsProportional) {
  EXPECT_DOUBLE_EQ(EnergyProportionality::IdealPercent(0.0), 0.0);
  EXPECT_DOUBLE_EQ(EnergyProportionality::IdealPercent(0.5), 50.0);
  EXPECT_DOUBLE_EQ(EnergyProportionality::IdealPercent(1.0), 100.0);
}

// ---------------------------------------------------------------------------
// Machine + power meter.
// ---------------------------------------------------------------------------

TEST(Machine, ServesRemoteMemoryOnlyInS0AndSz) {
  Machine m("node1", MachineProfile::HpCompaqElite8300(), /*sz_capable=*/true);
  EXPECT_TRUE(m.ServesRemoteMemory());  // S0
  ASSERT_TRUE(m.Suspend(SleepState::kSz).ok());
  EXPECT_TRUE(m.ServesRemoteMemory());  // Sz: the whole point
  m.WakeOnLan();
  ASSERT_TRUE(m.Suspend(SleepState::kS3).ok());
  EXPECT_FALSE(m.ServesRemoteMemory());  // S3: RAM in self-refresh
}

TEST(Machine, PowerTracksStateAndUtilization) {
  Machine m("node1", MachineProfile::HpCompaqElite8300(), true);
  m.set_utilization(0.0);
  const double idle = m.PowerPercentNow();
  m.set_utilization(1.0);
  EXPECT_GT(m.PowerPercentNow(), idle);
  ASSERT_TRUE(m.Suspend(SleepState::kSz).ok());
  EXPECT_NEAR(m.PowerPercentNow(), 12.67, 0.01);
}

TEST(Machine, WakeLatencyMatchesFirmwareTable) {
  Machine m("node1", MachineProfile::HpCompaqElite8300(), true);
  ASSERT_TRUE(m.Suspend(SleepState::kSz).ok());
  const Duration latency = m.WakeOnLan();
  EXPECT_EQ(latency, m.firmware().latencies().sz_exit);
  EXPECT_EQ(m.state(), SleepState::kS0);
  EXPECT_EQ(m.WakeOnLan(), 0);  // already awake
}

TEST(PowerMeter, IntegratesEnergyOverTime) {
  Machine m("node1", MachineProfile::HpCompaqElite8300(), true);
  PowerMeter meter(&m);
  m.set_utilization(1.0);
  meter.Sample(10 * kSecond);  // 110 W * 10 s = 1100 J
  EXPECT_NEAR(meter.energy_joules(), 1100.0, 1.0);
  EXPECT_NEAR(meter.average_percent(), 100.0, 0.1);

  // Zombie decade: energy collapses by ~8x.
  meter.Reset();
  ASSERT_TRUE(m.Suspend(SleepState::kSz).ok());
  meter.Sample(10 * kSecond);
  EXPECT_NEAR(meter.average_percent(), 12.67, 0.1);
}

TEST(TransitionLatencies, SzTracksS3) {
  TransitionLatencies lat;
  EXPECT_EQ(lat.EnterLatency(SleepState::kSz), lat.EnterLatency(SleepState::kS3));
  EXPECT_EQ(lat.ExitLatency(SleepState::kSz), lat.ExitLatency(SleepState::kS3));
  EXPECT_GT(lat.ExitLatency(SleepState::kS5), lat.ExitLatency(SleepState::kS4));
}

}  // namespace
}  // namespace zombie::acpi
