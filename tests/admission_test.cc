// Tests for admission control (Section 4.4 guarantee): rack and tenant
// budgets, CPU overcommit, the token bucket and atomic resize.
#include <gtest/gtest.h>

#include "src/cloud/admission.h"

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

}  // namespace
}  // namespace zombie::cloud
