// Seeded request-stream generators for the online serving mode.
//
// A RequestStream expands a StreamConfig into a deterministic timeline of
// arrival / departure / resize requests.  Arrivals follow one of three
// processes:
//
//   * kPoisson     — constant-rate Poisson arrivals (exponential gaps);
//   * kDiurnal     — Poisson modulated by a raised-cosine day curve (load
//                    swings between kDiurnalFloor and 1.0 of the rate);
//   * kFlashCrowd  — Poisson at the base rate with a burst window during
//                    which the rate multiplies (the load-spike scenario the
//                    SLO study needs).
//
// Time-varying rates are sampled by thinning against the peak rate, so the
// whole timeline is a pure function of the seed — byte-identical reports
// under any sweep-point parallelism.
#ifndef ZOMBIELAND_SRC_SERVE_STREAM_H_
#define ZOMBIELAND_SRC_SERVE_STREAM_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/serve/request.h"

namespace zombie::serve {

enum class ArrivalProcess : std::uint8_t { kPoisson = 0, kDiurnal, kFlashCrowd };

std::string_view ArrivalProcessName(ArrivalProcess process);
// Lookup from the scenario axis value ("poisson" / "diurnal" / "flash").
// Aborts on unknown names — axis values are validated against the parameter
// choices before a run starts.
ArrivalProcess ArrivalProcessFromKey(std::string_view key);

// Fraction of VMs resized once mid-life.
inline constexpr double kResizeFraction = 0.1;
// A resize grows the booking by this fraction.
inline constexpr double kResizeGrowth = 0.5;
// kDiurnal: the day curve's trough, as a fraction of the base rate.
inline constexpr double kDiurnalFloor = 0.25;
// Arrivals take ids kFirstVmId, +1, ...
inline constexpr std::uint64_t kFirstVmId = 1;

struct StreamConfig {
  std::uint64_t seed = 42;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate_per_s = 50.0;          // base arrival rate
  Duration horizon = 10 * kSecond;   // arrivals land in [0, horizon)

  std::uint32_t tenants = 4;         // tenant ids drawn uniformly from [0, tenants)
  Duration mean_lifetime = 4 * kSecond;  // exponential VM lifetime (>= 100ms)

  // VM shape: reserved memory uniform over {min, min+step, ..., max},
  // working set at half the reservation.
  Bytes min_memory = 1 * kGiB;
  Bytes max_memory = 4 * kGiB;
  Bytes memory_step = 512 * kMiB;
  std::uint32_t vcpus = 2;

  // kDiurnal: rate(t) = rate * (floor + (1-floor) * (1-cos(2pi t/period))/2),
  // with floor = kDiurnalFloor.
  Duration diurnal_period = 8 * kSecond;

  // kFlashCrowd: rate multiplies by `burst_multiplier` inside the window
  // [burst_start, burst_start + burst_duration).
  Duration burst_start = 4 * kSecond;
  Duration burst_duration = 2 * kSecond;
  double burst_multiplier = 5.0;
};

class RequestStream {
 public:
  explicit RequestStream(StreamConfig config) : config_(config) {}

  const StreamConfig& config() const { return config_; }

  // Instantaneous arrival rate (requests/s) at simulated time t, and the
  // peak the thinning loop samples against.
  double RateAt(SimTime t) const;
  double PeakRate() const;

  // The full deterministic timeline, sorted by `at` (stable: same-instant
  // requests keep generation order).  Departures and resizes may land after
  // `horizon` — a VM's lifetime is not truncated by the arrival window.
  std::vector<Request> Generate() const;

 private:
  StreamConfig config_;
};

}  // namespace zombie::serve

#endif  // ZOMBIELAND_SRC_SERVE_STREAM_H_
