#include "src/cloud/admission.h"

#include <algorithm>

namespace zombie::cloud {

const char* AdmissionRejectName(AdmissionReject reject) {
  switch (reject) {
    case AdmissionReject::kNone:
      return "none";
    case AdmissionReject::kAlreadyAdmitted:
      return "already_admitted";
    case AdmissionReject::kEmptyBooking:
      return "empty_booking";
    case AdmissionReject::kRackMemory:
      return "rack_memory";
    case AdmissionReject::kRackCpu:
      return "rack_cpu";
    case AdmissionReject::kTenantMemory:
      return "tenant_memory";
    case AdmissionReject::kTenantCpu:
      return "tenant_cpu";
    case AdmissionReject::kThrottled:
      return "throttled";
    case AdmissionReject::kUnknownVm:
      return "unknown_vm";
  }
  return "unknown";
}

void AdmissionController::ConfigureThrottle(TokenBucketConfig throttle) {
  throttle_ = throttle;
  tokens_ = throttle.burst;  // the bucket starts full
}

bool AdmissionController::TakeToken(SimTime now) {
  if (throttle_.rate_per_s <= 0.0) {
    return true;  // throttling disabled
  }
  if (now > last_refill_) {
    tokens_ = std::min(throttle_.burst,
                       tokens_ + ToSeconds(now - last_refill_) * throttle_.rate_per_s);
    last_refill_ = now;
  }
  if (tokens_ < 1.0) {
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

AdmissionReject AdmissionController::Book(TenantId tenant, const hv::VmSpec& vm) {
  if (admitted_.contains(vm.id)) {
    // Never double-count an id that is already booked: the original booking
    // stands and the duplicate is rejected outright.
    return AdmissionReject::kAlreadyAdmitted;
  }
  if (vm.reserved_memory == 0 || vm.vcpus == 0) {
    return AdmissionReject::kEmptyBooking;
  }
  if (auto it = quotas_.find(tenant); it != quotas_.end()) {
    const TenantUsage used = usage_.contains(tenant) ? usage_.at(tenant) : TenantUsage{};
    if (it->second.memory > 0 && used.memory + vm.reserved_memory > it->second.memory) {
      return AdmissionReject::kTenantMemory;
    }
    if (it->second.cpus > 0.0 &&
        used.cpus + static_cast<double>(vm.vcpus) > it->second.cpus) {
      return AdmissionReject::kTenantCpu;
    }
  }
  if (admitted_memory_ + vm.reserved_memory > MemoryBudget()) {
    // The whole point: never promise memory the rack cannot serve, because
    // GS_alloc_ext must always be able to fulfil its guarantee.
    return AdmissionReject::kRackMemory;
  }
  if (static_cast<double>(admitted_cpus_ + vm.vcpus) > CpuBudget()) {
    return AdmissionReject::kRackCpu;
  }
  admitted_memory_ += vm.reserved_memory;
  admitted_cpus_ += vm.vcpus;
  auto& used = usage_[tenant];
  used.memory += vm.reserved_memory;
  used.cpus += static_cast<double>(vm.vcpus);
  admitted_.emplace(vm.id, Booking{vm, tenant});
  return AdmissionReject::kNone;
}

void AdmissionController::Unbook(const Booking& booking) {
  admitted_memory_ -= booking.spec.reserved_memory;
  admitted_cpus_ -= booking.spec.vcpus;
  auto& used = usage_[booking.tenant];
  used.memory -= booking.spec.reserved_memory;
  used.cpus -= static_cast<double>(booking.spec.vcpus);
}

AdmissionReject AdmissionController::AdmitAt(SimTime now, TenantId tenant,
                                             const hv::VmSpec& vm) {
  if (!TakeToken(now)) {
    return AdmissionReject::kThrottled;
  }
  const AdmissionReject verdict = Book(tenant, vm);
  if (verdict != AdmissionReject::kNone && throttle_.rate_per_s > 0.0) {
    // Quota/budget rejections refund: the token prices admission work.
    tokens_ = std::min(throttle_.burst, tokens_ + 1.0);
  }
  return verdict;
}

AdmissionReject AdmissionController::Resize(hv::VmId vm, Bytes new_memory,
                                            std::uint32_t new_vcpus) {
  auto it = admitted_.find(vm);
  if (it == admitted_.end()) {
    return AdmissionReject::kUnknownVm;
  }
  // Re-book atomically: drop the old booking, try the new one, and restore
  // the old booking if the new shape does not fit.
  const Booking old = it->second;
  Unbook(old);
  admitted_.erase(it);
  hv::VmSpec resized = old.spec;
  resized.reserved_memory = new_memory;
  resized.vcpus = new_vcpus;
  const AdmissionReject verdict = Book(old.tenant, resized);
  if (verdict != AdmissionReject::kNone) {
    const AdmissionReject restored = Book(old.tenant, old.spec);
    (void)restored;  // the old shape was booked a moment ago; it still fits
  }
  return verdict;
}

Status AdmissionController::Release(hv::VmId vm) {
  auto it = admitted_.find(vm);
  if (it == admitted_.end()) {
    return Status(ErrorCode::kNotFound, "VM not admitted");
  }
  Unbook(it->second);
  admitted_.erase(it);
  return Status::Ok();
}

Bytes AdmissionController::tenant_memory(TenantId tenant) const {
  auto it = usage_.find(tenant);
  return it == usage_.end() ? 0 : it->second.memory;
}

double AdmissionController::tenant_cpus(TenantId tenant) const {
  auto it = usage_.find(tenant);
  return it == usage_.end() ? 0.0 : it->second.cpus;
}

}  // namespace zombie::cloud
