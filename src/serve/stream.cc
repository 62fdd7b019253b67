#include "src/serve/stream.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace zombie::serve {

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kArrive:
      return "arrive";
    case RequestKind::kDepart:
      return "depart";
    case RequestKind::kResize:
      return "resize";
  }
  return "unknown";
}

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kThrottled:
      return "throttled";
    case ShedReason::kTenantQuota:
      return "tenant_quota";
    case ShedReason::kRackBudget:
      return "rack_budget";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kQueueTimeout:
      return "queue_timeout";
    case ShedReason::kCount:
      break;
  }
  return "unknown";
}

std::string_view ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
    case ArrivalProcess::kFlashCrowd:
      return "flash";
  }
  return "unknown";
}

ArrivalProcess ArrivalProcessFromKey(std::string_view key) {
  if (key == "poisson") {
    return ArrivalProcess::kPoisson;
  }
  if (key == "diurnal") {
    return ArrivalProcess::kDiurnal;
  }
  if (key == "flash") {
    return ArrivalProcess::kFlashCrowd;
  }
  FatalMessage("serve", "unknown arrival process '" + std::string(key) + "'");
}

double RequestStream::RateAt(SimTime t) const {
  switch (config_.process) {
    case ArrivalProcess::kPoisson:
      return config_.rate_per_s;
    case ArrivalProcess::kDiurnal: {
      const double phase = 2.0 * M_PI * static_cast<double>(t) /
                           static_cast<double>(config_.diurnal_period);
      const double swing = (1.0 - std::cos(phase)) / 2.0;  // 0 at t=0, 1 at mid-period
      return config_.rate_per_s * (kDiurnalFloor + (1.0 - kDiurnalFloor) * swing);
    }
    case ArrivalProcess::kFlashCrowd: {
      const bool in_burst =
          t >= config_.burst_start && t < config_.burst_start + config_.burst_duration;
      return config_.rate_per_s * (in_burst ? config_.burst_multiplier : 1.0);
    }
  }
  return config_.rate_per_s;
}

double RequestStream::PeakRate() const {
  switch (config_.process) {
    case ArrivalProcess::kPoisson:
    case ArrivalProcess::kDiurnal:
      return config_.rate_per_s;
    case ArrivalProcess::kFlashCrowd:
      return config_.rate_per_s * std::max(1.0, config_.burst_multiplier);
  }
  return config_.rate_per_s;
}

std::vector<Request> RequestStream::Generate() const {
  // Checked in every build type: a wrapped (negative) horizon would yield an
  // empty timeline and a run that silently serves nothing.
  if (!(config_.rate_per_s > 0.0 && config_.horizon > 0)) {
    FatalMessage("serve", "request stream needs a positive rate and horizon");
  }
  Rng rng(config_.seed);
  std::vector<Request> timeline;

  const double peak = PeakRate();
  const double mean_gap_ns = static_cast<double>(kSecond) / peak;
  const Duration min_lifetime = 100 * kMillisecond;
  const Bytes step = std::max<Bytes>(config_.memory_step, kPageSize);
  const std::uint64_t shapes =
      config_.max_memory > config_.min_memory
          ? (config_.max_memory - config_.min_memory) / step + 1
          : 1;

  std::uint64_t vm_id = kFirstVmId;
  double t = 0.0;
  const auto horizon = static_cast<double>(config_.horizon);
  while (true) {
    t += rng.NextExponential(mean_gap_ns);
    if (t >= horizon) {
      break;
    }
    const auto at = static_cast<SimTime>(t);
    // Thinning: candidate arrivals are drawn at the peak rate and accepted
    // with probability rate(t)/peak, which leaves exactly the target
    // inhomogeneous Poisson process.  The draw happens for every candidate
    // so the consumed random stream (and therefore everything downstream)
    // is identical across processes with equal peaks.
    const bool accept = rng.NextBool(RateAt(at) / peak);
    if (!accept) {
      continue;
    }

    Request arrive;
    arrive.at = at;
    arrive.kind = RequestKind::kArrive;
    arrive.tenant = static_cast<cloud::TenantId>(
        rng.NextBelow(std::max<std::uint64_t>(config_.tenants, 1)));
    arrive.vm.id = vm_id++;
    arrive.vm.name = "vm" + std::to_string(arrive.vm.id);
    arrive.vm.reserved_memory = config_.min_memory + step * rng.NextBelow(shapes);
    arrive.vm.working_set = arrive.vm.reserved_memory / 2;
    arrive.vm.vcpus = config_.vcpus;
    arrive.vm.mode = hv::MemoryMode::kRamExt;

    auto lifetime =
        static_cast<Duration>(rng.NextExponential(static_cast<double>(config_.mean_lifetime)));
    lifetime = std::max(lifetime, min_lifetime);

    Request depart = arrive;
    depart.kind = RequestKind::kDepart;
    depart.at = arrive.at + lifetime;

    const bool resized = rng.NextBool(kResizeFraction);
    timeline.push_back(arrive);
    if (resized) {
      // One mid-life resize, somewhere in the central 60% of the lifetime so
      // it can never race the VM's own arrival or departure.
      Request resize = arrive;
      resize.kind = RequestKind::kResize;
      resize.at = arrive.at +
                  static_cast<Duration>(static_cast<double>(lifetime) *
                                        rng.NextDouble(0.2, 0.8));
      resize.vm.reserved_memory =
          arrive.vm.reserved_memory +
          static_cast<Bytes>(kResizeGrowth * static_cast<double>(arrive.vm.reserved_memory));
      resize.vm.working_set = resize.vm.reserved_memory / 2;
      timeline.push_back(resize);
    }
    timeline.push_back(depart);
  }

  // Stable by-time sort: same-instant requests keep generation order, so the
  // timeline (and every daemon decision downstream) is seed-deterministic.
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Request& a, const Request& b) { return a.at < b.at; });
  return timeline;
}

}  // namespace zombie::serve
