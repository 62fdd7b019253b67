// Tests for admission control (Section 4.4 guarantee) and the event-driven
// rack runtime (heartbeats, consolidation, hourly swap refresh).
#include <gtest/gtest.h>

#include "src/cloud/admission.h"
#include "src/cloud/rack.h"
#include "src/cloud/runtime.h"
#include "src/common/event_queue.h"

namespace zombie::cloud {
namespace {

hv::VmSpec MakeVm(hv::VmId id, Bytes reserved, std::uint32_t cpus) {
  hv::VmSpec vm;
  vm.id = id;
  vm.reserved_memory = reserved;
  vm.working_set = reserved / 2;
  vm.vcpus = cpus;
  return vm;
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(Admission, AdmitsWithinBudget) {
  AdmissionController admission;
  admission.AddCapacity(64 * kGiB, 32);
  EXPECT_EQ(admission.MemoryBudget(), static_cast<Bytes>(0.85 * 64 * kGiB));
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 16 * kGiB, 8)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 16 * kGiB, 8)), AdmissionReject::kNone);
  EXPECT_TRUE(admission.IsAdmitted(1));
  EXPECT_EQ(admission.admitted_memory(), 32 * kGiB);
}

TEST(Admission, RejectsMemoryOvercommit) {
  AdmissionController admission;
  admission.AddCapacity(32 * kGiB, 32);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 24 * kGiB, 4)), AdmissionReject::kNone);
  // 24 + 8 > 0.85 * 32 = 27.2 GiB: must reject to keep GS_alloc_ext honest.
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 8 * kGiB, 4)), AdmissionReject::kRackMemory);
  EXPECT_FALSE(admission.IsAdmitted(2));
}

TEST(Admission, CpuOvercommitAllowedUpToFactor) {
  AdmissionController admission;
  admission.AddCapacity(640 * kGiB, 8);
  // 2x overcommit on 8 cpus: 16 vCPUs admissible.
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 1 * kGiB, 8)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 1 * kGiB, 8)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(3, 1 * kGiB, 1)), AdmissionReject::kRackCpu);
}

TEST(Admission, ReleaseReturnsBudget) {
  AdmissionController admission;
  admission.AddCapacity(32 * kGiB, 16);
  ASSERT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 24 * kGiB, 4)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 24 * kGiB, 4)), AdmissionReject::kRackMemory);
  EXPECT_TRUE(admission.Release(1).ok());
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 24 * kGiB, 4)), AdmissionReject::kNone);
  EXPECT_EQ(admission.Release(1).code(), ErrorCode::kNotFound);
}

TEST(Admission, DuplicateAndEmptyRejected) {
  AdmissionController admission;
  admission.AddCapacity(32 * kGiB, 16);
  ASSERT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 1 * kGiB, 1)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 1 * kGiB, 1)), AdmissionReject::kAlreadyAdmitted);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 0, 1)), AdmissionReject::kEmptyBooking);
}

TEST(Admission, RetiredServerShrinksBudget) {
  AdmissionController admission;
  admission.AddCapacity(32 * kGiB, 16);
  admission.RemoveCapacity(16 * kGiB, 8);
  EXPECT_EQ(admission.MemoryBudget(), static_cast<Bytes>(0.85 * 16 * kGiB));
}

TEST(Admission, DoubleAdmitDoesNotDoubleCount) {
  AdmissionController admission;
  admission.AddCapacity(64 * kGiB, 32);
  ASSERT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 8 * kGiB, 4)), AdmissionReject::kNone);
  const Bytes booked_memory = admission.admitted_memory();
  const std::uint32_t booked_cpus = admission.admitted_cpus();
  // A duplicate id must bounce without touching the books — otherwise a
  // retried request would shrink the budget for everyone else.
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 8 * kGiB, 4)),
            AdmissionReject::kAlreadyAdmitted);
  EXPECT_EQ(admission.AdmitAt(0, 1, MakeVm(1, 2 * kGiB, 1)),
            AdmissionReject::kAlreadyAdmitted);
  EXPECT_EQ(admission.admitted_memory(), booked_memory);
  EXPECT_EQ(admission.admitted_cpus(), booked_cpus);
  // And one Release fully unwinds it; a second is NotFound, not a no-op.
  EXPECT_TRUE(admission.Release(1).ok());
  EXPECT_EQ(admission.admitted_memory(), 0u);
  EXPECT_EQ(admission.Release(1).code(), ErrorCode::kNotFound);
}

TEST(Admission, ReleaseUnknownVmIsNotFound) {
  AdmissionController admission;
  admission.AddCapacity(64 * kGiB, 32);
  EXPECT_EQ(admission.Release(99).code(), ErrorCode::kNotFound);
  EXPECT_EQ(admission.admitted_memory(), 0u);
  EXPECT_EQ(admission.admitted_cpus(), 0u);
}

TEST(Admission, TenantQuotaCapsIndependentlyOfRackBudget) {
  AdmissionController admission;
  admission.AddCapacity(640 * kGiB, 64);
  admission.SetTenantQuota(1, {.memory = 8 * kGiB, .cpus = 4.0});
  EXPECT_EQ(admission.AdmitAt(0, 1, MakeVm(1, 8 * kGiB, 2)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 1, MakeVm(2, 1 * kGiB, 1)),
            AdmissionReject::kTenantMemory);
  EXPECT_EQ(admission.AdmitAt(0, 1, MakeVm(3, 0 * kGiB + kMiB, 4)),
            AdmissionReject::kTenantMemory);
  // Another tenant is unaffected by tenant 1's quota.
  EXPECT_EQ(admission.AdmitAt(0, 2, MakeVm(4, 32 * kGiB, 8)), AdmissionReject::kNone);
  EXPECT_EQ(admission.tenant_memory(1), 8 * kGiB);
  EXPECT_EQ(admission.tenant_memory(2), 32 * kGiB);
}

TEST(Admission, TokenBucketThrottlesAndRefills) {
  AdmissionController admission;
  admission.AddCapacity(640 * kGiB, 64);
  admission.ConfigureThrottle({.rate_per_s = 10.0, .burst = 2.0});
  // Bucket starts full: two back-to-back admissions drain it.
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 1 * kGiB, 1)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 1 * kGiB, 1)), AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(3, 1 * kGiB, 1)), AdmissionReject::kThrottled);
  // 100ms at 10/s refills exactly one token.
  EXPECT_EQ(admission.AdmitAt(100 * kMillisecond, 0, MakeVm(3, 1 * kGiB, 1)),
            AdmissionReject::kNone);
  EXPECT_EQ(admission.AdmitAt(100 * kMillisecond, 0, MakeVm(4, 1 * kGiB, 1)),
            AdmissionReject::kThrottled);
}

TEST(Admission, RejectedRequestRefundsTokenExceptThrottle) {
  AdmissionController admission;
  admission.AddCapacity(8 * kGiB, 64);
  admission.ConfigureThrottle({.rate_per_s = 1.0, .burst = 1.0});
  // One token available; the request fails the rack budget, not the bucket,
  // so the token is refunded and the next attempt still gets a verdict.
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(1, 32 * kGiB, 1)),
            AdmissionReject::kRackMemory);
  EXPECT_EQ(admission.AdmitAt(0, 0, MakeVm(2, 1 * kGiB, 1)), AdmissionReject::kNone);
}

TEST(Admission, ResizeAppliesDeltaAtomically) {
  AdmissionController admission;
  admission.AddCapacity(64 * kGiB, 32);
  admission.SetTenantQuota(1, {.memory = 16 * kGiB, .cpus = 0.0});
  ASSERT_EQ(admission.AdmitAt(0, 1, MakeVm(1, 8 * kGiB, 4)), AdmissionReject::kNone);
  EXPECT_EQ(admission.Resize(1, 12 * kGiB, 6), AdmissionReject::kNone);
  EXPECT_EQ(admission.admitted_memory(), 12 * kGiB);
  EXPECT_EQ(admission.admitted_cpus(), 6u);
  EXPECT_EQ(admission.tenant_memory(1), 12 * kGiB);
  // A rejected resize (tenant quota) leaves the old booking untouched.
  EXPECT_EQ(admission.Resize(1, 20 * kGiB, 6), AdmissionReject::kTenantMemory);
  EXPECT_EQ(admission.admitted_memory(), 12 * kGiB);
  EXPECT_EQ(admission.tenant_memory(1), 12 * kGiB);
  // Resizing a VM that was never admitted is its own verdict.
  EXPECT_EQ(admission.Resize(7, 1 * kGiB, 1), AdmissionReject::kUnknownVm);
}

// ---------------------------------------------------------------------------
// RackRuntime over the event queue.
// ---------------------------------------------------------------------------

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() {
    config_.buff_size = 4 * kMiB;
    config_.materialize_memory = false;
    rack_ = std::make_unique<Rack>(config_);
    auto profile = acpi::MachineProfile::HpCompaqElite8300();
    rack_->AddServer("a", profile, {8, 16 * kGiB});
    rack_->AddServer("b", profile, {8, 16 * kGiB});
  }

  RackConfig config_;
  std::unique_ptr<Rack> rack_;
  EventQueue queue_;
};

TEST_F(RuntimeTest, HeartbeatsFlowOnSchedule) {
  RackRuntime runtime(rack_.get(), &queue_);
  runtime.Start();
  queue_.RunUntil(1 * kSecond);
  // 100 ms period -> 10 beats in a second.
  EXPECT_EQ(runtime.heartbeats_sent(), 10u);
  EXPECT_FALSE(rack_->plane().secondary(0).failed_over());
}

TEST_F(RuntimeTest, SilentPrimaryFailsOverWithinThreeBeats) {
  RackRuntime runtime(rack_.get(), &queue_);
  runtime.Start();
  queue_.RunUntil(500 * kMillisecond);
  rack_->FailPrimaryController();
  // Within three heartbeat periods the monitor triggers failover, after
  // which the (promoted) primary resumes beating.
  queue_.RunUntil(900 * kMillisecond);
  EXPECT_TRUE(rack_->primary_alive());
  EXPECT_TRUE(rack_->plane().secondary(0).failed_over());
}

TEST_F(RuntimeTest, PeriodicHooksFire) {
  RuntimeConfig rc;
  rc.consolidation_period = 10 * kMinute;
  rc.swap_refresh_period = 1 * kHour;
  RackRuntime runtime(rack_.get(), &queue_, rc);
  int consolidations = 0;
  int refreshes = 0;
  runtime.set_consolidation_hook([&] { ++consolidations; });
  runtime.set_swap_refresh_hook([&] { ++refreshes; });
  runtime.Start();
  queue_.RunUntil(2 * kHour);
  EXPECT_EQ(consolidations, 12);
  EXPECT_EQ(refreshes, 2);
  EXPECT_EQ(runtime.consolidation_rounds(), 12u);
  EXPECT_EQ(runtime.swap_refreshes(), 2u);
}

TEST_F(RuntimeTest, StopHaltsAllProcesses) {
  RackRuntime runtime(rack_.get(), &queue_);
  runtime.Start();
  queue_.RunUntil(300 * kMillisecond);
  const auto beats = runtime.heartbeats_sent();
  runtime.Stop();
  queue_.RunUntil(2 * kSecond);
  EXPECT_EQ(runtime.heartbeats_sent(), beats);
  // Restartable.
  runtime.Start();
  queue_.RunUntil(3 * kSecond);
  EXPECT_GT(runtime.heartbeats_sent(), beats);
}

TEST_F(RuntimeTest, StartIsIdempotent) {
  RackRuntime runtime(rack_.get(), &queue_);
  runtime.Start();
  runtime.Start();  // no double scheduling
  queue_.RunUntil(1 * kSecond);
  EXPECT_EQ(runtime.heartbeats_sent(), 10u);
}

}  // namespace
}  // namespace zombie::cloud
