// Synthetic cluster traces in the spirit of the Google cluster-usage traces
// the paper replays (Section 6.6.2): jobs composed of tasks, each with a
// start time, a termination time, booked CPU/memory capacity, and a
// periodically sampled actual utilisation.
//
// Two variants, as in the paper:
//  * the original shape (booked memory roughly proportional to CPU), and
//  * the "modified" transform, where memory demand is twice CPU demand —
//    the direction the motivation section argues the cloud is heading.
#ifndef ZOMBIELAND_SRC_SIM_TRACE_H_
#define ZOMBIELAND_SRC_SIM_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace zombie::sim {

struct TraceTask {
  std::uint64_t id = 0;
  SimTime start = 0;
  SimTime end = 0;
  // Booked capacity, normalised to one server (1.0 = a whole server's CPU
  // or memory).
  double booked_cpu = 0.125;
  double booked_mem = 0.125;
  // Mean actual utilisation relative to the booking (Google traces show
  // heavy over-booking).
  double cpu_usage_ratio = 0.4;

  Duration duration() const { return end - start; }
};

// A task below this CPU usage ratio is idle (Oasis moves only an idle VM's
// working set).
inline constexpr double kIdleCpuRatio = 0.01;

// Working set as a fraction of the booking: idle tasks keep a small hot
// core; busy tasks use most of what they booked.
inline double WssFraction(const TraceTask& task) {
  return task.cpu_usage_ratio < kIdleCpuRatio ? 0.25 : 0.6;
}

// Fraction of tasks that sit idle (<1% CPU) for long stretches — the
// population Oasis partially migrates.
inline constexpr double kIdleTaskFraction = 0.3;

struct TraceConfig {
  std::uint64_t seed = 1234;
  std::size_t servers = 200;           // paper replays 12,583; scaled down
  std::size_t tasks = 4000;
  Duration horizon = 2 * kDay;         // paper: 29 days; scaled down
  // Target average rack load (fraction of total CPU booked at steady state).
  double target_cpu_load = 0.35;
  // Memory:CPU booking ratio: 1.0 reproduces the original trace shape, 2.0
  // the modified ("memory demand is twice the CPU demand") variant.
  double mem_to_cpu_ratio = 1.0;
};

struct Trace {
  TraceConfig config;
  std::vector<TraceTask> tasks;

  // Aggregate booked CPU (server-equivalents) alive at time t.
  double BookedCpuAt(SimTime t) const;
  double BookedMemAt(SimTime t) const;
};

// Generates a deterministic trace from the config.
Trace GenerateTrace(const TraceConfig& config);

// The paper's modified-trace transform applied to an existing trace:
// memory bookings scaled so memory demand is `ratio` times CPU demand.
Trace WithMemoryRatio(const Trace& base, double ratio);

}  // namespace zombie::sim

#endif  // ZOMBIELAND_SRC_SIM_TRACE_H_
