// Rack-level admission control (Section 4.4).
//
// "This allocation is guaranteed by the cloud provider via admission control
// to avoid rack-level memory overcommitment."  GS_alloc_ext may only promise
// full allocations if, at VM admission time, the provider checked that every
// admitted VM's reserved memory fits the rack's aggregate memory (local RAM
// of awake servers plus delegable zombie memory), with a configurable safety
// margin.  This module is that check — plus the per-tenant quota and
// token-bucket throttle the online serving mode (src/serve) puts in front of
// it, so one misbehaving tenant cannot starve the rack or the gate.
#ifndef ZOMBIELAND_SRC_CLOUD_ADMISSION_H_
#define ZOMBIELAND_SRC_CLOUD_ADMISSION_H_

#include <cstdint>
#include <map>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/hv/vm.h"

namespace zombie::cloud {

using TenantId = std::uint32_t;

struct AdmissionConfig {
  // Fraction of the rack's total memory admissible as guaranteed
  // reservations (the rest absorbs kernel overheads, controller state and
  // delegation floors).
  double memory_headroom = 0.85;
  // vCPU overcommit factor (CPU is time-shareable; memory is not).
  double cpu_overcommit = 2.0;
};

// Per-tenant reservation caps.  0 = unlimited on that dimension.
struct TenantQuota {
  Bytes memory = 0;
  double cpus = 0.0;
};

// Request-rate throttle in simulated time.  rate_per_s == 0 disables it.
struct TokenBucketConfig {
  double rate_per_s = 0.0;  // sustained admission attempts per second
  double burst = 1.0;       // bucket capacity (attempts absorbed at once)
};

// Why the gate said no.  The serving layer maps these onto its typed shed
// reasons; kNone means admitted.
enum class AdmissionReject : std::uint8_t {
  kNone = 0,
  kAlreadyAdmitted,  // duplicate VmId (never double-counted)
  kEmptyBooking,     // zero memory or zero vCPUs
  kRackMemory,       // §4.4 rack memory budget exhausted
  kRackCpu,          // rack vCPU budget exhausted
  kTenantMemory,     // tenant over its memory quota
  kTenantCpu,        // tenant over its vCPU quota
  kThrottled,        // token bucket dry
  kUnknownVm,        // resize of a VM that was never admitted
};

const char* AdmissionRejectName(AdmissionReject reject);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {}) : config_(config) {}

  const AdmissionConfig& config() const { return config_; }

  // Registers rack capacity (sum over all servers, awake or not — zombie
  // memory still serves reservations; S3/S4/S5 memory does not and should be
  // unregistered while retired).
  void AddCapacity(Bytes memory, std::uint32_t cpus) {
    total_memory_ += memory;
    total_cpus_ += cpus;
  }
  void RemoveCapacity(Bytes memory, std::uint32_t cpus) {
    total_memory_ = memory > total_memory_ ? 0 : total_memory_ - memory;
    total_cpus_ = cpus > total_cpus_ ? 0 : total_cpus_ - cpus;
  }

  // Installs a per-tenant cap (applies to future admissions and resizes).
  void SetTenantQuota(TenantId tenant, TenantQuota quota) { quotas_[tenant] = quota; }
  // Installs the gate-wide token bucket; the bucket starts full.
  void ConfigureThrottle(TokenBucketConfig throttle);

  // The full serving gate: refills the token bucket to `now`, charges one
  // token, and admits `vm` for `tenant` against the tenant quota and the
  // rack budget.  kNone = admitted (booked until released).  A rejected
  // request books nothing and, except for kThrottled, refunds its token —
  // the bucket prices admission *work*, not failed quota checks.
  AdmissionReject AdmitAt(SimTime now, TenantId tenant, const hv::VmSpec& vm);

  // Re-books an admitted VM at a new size.  On success the delta is applied
  // atomically to the rack and tenant accounting; on rejection the old
  // booking stands untouched.
  AdmissionReject Resize(hv::VmId vm, Bytes new_memory, std::uint32_t new_vcpus);

  // Releases a booking.  Unknown ids return kNotFound (they must not
  // silently "succeed" — a double release would let accounting drift).
  [[nodiscard]] Status Release(hv::VmId vm);
  bool IsAdmitted(hv::VmId vm) const { return admitted_.contains(vm); }

  Bytes admitted_memory() const { return admitted_memory_; }
  std::uint32_t admitted_cpus() const { return admitted_cpus_; }
  Bytes tenant_memory(TenantId tenant) const;
  double tenant_cpus(TenantId tenant) const;
  double tokens() const { return tokens_; }

  Bytes MemoryBudget() const {
    return static_cast<Bytes>(config_.memory_headroom * static_cast<double>(total_memory_));
  }
  double CpuBudget() const {
    return config_.cpu_overcommit * static_cast<double>(total_cpus_);
  }

 private:
  struct Booking {
    hv::VmSpec spec;
    TenantId tenant = 0;
  };
  struct TenantUsage {
    Bytes memory = 0;
    double cpus = 0.0;
  };

  // Quota + budget check and booking, shared by AdmitAt/Resize.
  AdmissionReject Book(TenantId tenant, const hv::VmSpec& vm);
  void Unbook(const Booking& booking);
  bool TakeToken(SimTime now);

  AdmissionConfig config_;
  Bytes total_memory_ = 0;
  std::uint32_t total_cpus_ = 0;
  Bytes admitted_memory_ = 0;
  std::uint32_t admitted_cpus_ = 0;
  std::map<hv::VmId, Booking> admitted_;
  std::map<TenantId, TenantQuota> quotas_;
  std::map<TenantId, TenantUsage> usage_;
  TokenBucketConfig throttle_;
  double tokens_ = 0.0;
  SimTime last_refill_ = 0;
};

}  // namespace zombie::cloud

#endif  // ZOMBIELAND_SRC_CLOUD_ADMISSION_H_
