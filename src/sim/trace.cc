#include "src/sim/trace.h"

#include <algorithm>

namespace zombie::sim {

double Trace::BookedCpuAt(SimTime t) const {
  double total = 0.0;
  for (const auto& task : tasks) {
    if (task.start <= t && t < task.end) {
      total += task.booked_cpu;
    }
  }
  return total;
}

double Trace::BookedMemAt(SimTime t) const {
  double total = 0.0;
  for (const auto& task : tasks) {
    if (task.start <= t && t < task.end) {
      total += task.booked_mem;
    }
  }
  return total;
}

Trace GenerateTrace(const TraceConfig& config) {
  Trace trace;
  trace.config = config;
  Rng rng(config.seed);

  // Mean task lifetime chosen so the steady-state booked CPU hits the target
  // load: load ~= arrival_rate * mean_duration * mean_booked_cpu.
  const double mean_booked_cpu = 0.12;
  const double total_cpu = static_cast<double>(config.servers);
  const double target_booked = config.target_cpu_load * total_cpu;
  // Aim for ~tasks spread uniformly over the horizon.
  const double arrivals_per_ns =
      static_cast<double>(config.tasks) / static_cast<double>(config.horizon);
  const double mean_duration_ns = target_booked / (arrivals_per_ns * mean_booked_cpu);

  SimTime t = 0;
  for (std::size_t i = 0; i < config.tasks; ++i) {
    TraceTask task;
    task.id = i + 1;
    t += static_cast<SimTime>(rng.NextExponential(1.0 / arrivals_per_ns));
    task.start = t;
    // Heavy-tailed durations (most tasks short, a few very long), capped so
    // everything finishes within 4x the horizon.
    const double dur = std::min(rng.NextPareto(mean_duration_ns * 0.25, 1.5),
                                4.0 * static_cast<double>(config.horizon));
    task.end = task.start + static_cast<SimTime>(dur);
    // Booked CPU: 1/16 .. 1/2 of a server, geometric-ish mix.
    static constexpr double kSizes[] = {0.0625, 0.125, 0.25, 0.5};
    task.booked_cpu = kSizes[rng.NextBelow(4) == 3 ? 2 : rng.NextBelow(3)];
    // Original Google-trace shape: memory bookings already lean above CPU
    // (the memory-capacity-wall motivation of Section 2), with jitter around
    // the configured ratio.
    const double jitter = rng.NextDouble(1.0, 1.8);
    task.booked_mem = std::min(1.0, task.booked_cpu * config.mem_to_cpu_ratio * jitter);
    task.cpu_usage_ratio = rng.NextBool(kIdleTaskFraction)
                               ? rng.NextDouble(0.0, 0.008)  // idle population
                               : rng.NextDouble(0.25, 0.70);
    trace.tasks.push_back(task);
  }
  return trace;
}

Trace WithMemoryRatio(const Trace& base, double ratio) {
  // The paper's transform: "we built a second set in which the memory demand
  // is twice the CPU demand" — bookings are pinned to ratio * CPU.
  Trace out = base;
  out.config.mem_to_cpu_ratio = ratio;
  for (auto& task : out.tasks) {
    task.booked_mem = std::min(1.0, task.booked_cpu * ratio);
  }
  return out;
}

}  // namespace zombie::sim
