// Per-request latency tracking and SLO accounting for the serving daemon.
//
// Four latency distributions (the stations of a request's life):
//   * admission wait    — arrival to the admission verdict (the serial gate
//                         queues under load, so this grows with arrival rate);
//   * placement latency — arrival to the VM actually hosted (includes any
//                         backpressure queueing and zombie-wake stalls);
//   * fault service     — per-placement page-service cost: one-sided fabric
//                         read for remote-backed placements, DRAM-class for
//                         purely local ones;
//   * migration stall   — the zombie-wake latency charged to requests that
//                         could only place after a wake.
// All distributions report p50/p99/p999 via common/stats.h::Percentiles.
#ifndef ZOMBIELAND_SRC_SERVE_METRICS_H_
#define ZOMBIELAND_SRC_SERVE_METRICS_H_

#include <array>
#include <cstdint>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/serve/request.h"

namespace zombie::serve {

// Tail-latency objectives.  A placed request violates the SLO when its
// admission wait exceeds kSloAdmissionTarget or its arrival-to-placed latency
// exceeds kSloPlacementTarget; shed requests are tracked by the shed-rate
// metric instead (a shed is an explicit "no", not a silent SLO miss).
inline constexpr Duration kSloAdmissionTarget = 50 * kMillisecond;
inline constexpr Duration kSloPlacementTarget = 500 * kMillisecond;

struct ServeMetrics {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t placed = 0;
  std::uint64_t departed = 0;
  std::uint64_t cancelled = 0;  // departures that caught the VM still queued
  std::uint64_t resized = 0;
  std::uint64_t resize_rejected = 0;
  std::uint64_t zombie_wakes = 0;
  std::uint64_t slo_violations = 0;
  std::array<std::uint64_t, kShedReasonCount> shed{};

  Percentiles admission_wait_ms;
  Percentiles placement_ms;
  Percentiles fault_service_us;
  Percentiles migration_stall_ms;
  RunningStats power_pct;  // rack power sampled every tick, percent of max

  std::uint64_t TotalShed() const;
  // Shed requests as a fraction of arrivals (0 when nothing arrived).
  double ShedRate() const;
};

}  // namespace zombie::serve

#endif  // ZOMBIELAND_SRC_SERVE_METRICS_H_
