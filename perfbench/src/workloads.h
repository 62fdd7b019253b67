// The three benchmark workloads, each driven only through the simulator's
// public entry points.  See perfbench/README.md for why each one exists and
// which layers it stresses.
//
// Every pass is a pure function of its seed: it builds fresh simulator state
// (timed as set-up), runs the timed region, and returns a fingerprint of the
// simulated outputs.  Two passes on one seed must fingerprint identically.
#ifndef ZOMBIELAND_PERFBENCH_SRC_WORKLOADS_H_
#define ZOMBIELAND_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/tracer.h"
#include "src/hv/pager.h"

namespace perfbench {

enum class Workload { kRamextRemote, kDataplaneSharded, kServeRack };

inline constexpr Workload kAllWorkloads[] = {Workload::kRamextRemote,
                                             Workload::kDataplaneSharded, Workload::kServeRack};

const char* WorkloadName(Workload workload);
std::optional<Workload> ParseWorkload(std::string_view name);

// Ordered (name, value) pairs of simulated outputs.
using Fingerprint = std::vector<std::pair<std::string, double>>;

struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;         // the timed region
  std::uint64_t ops = 0;      // simulated operations in the timed region
  std::uint64_t failed = 0;   // operations whose layer call failed
  Fingerprint fingerprint;
  std::vector<std::string> problems;  // broken invariants; any one fails the run

  double ops_per_s() const { return run_s > 0.0 ? static_cast<double>(ops) / run_s : 0.0; }
};

// One untraced pass: what the end-to-end metrics are measured on.
PassResult RunPass(Workload workload, std::uint64_t seed);

// ---- Traced passes (per-layer metrics) -------------------------------------

struct RamextLayers {
  zombie::hv::PagerStats stats;
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t mirror_reads = 0;
  std::uint64_t fabric_ops = 0;
  std::uint64_t fabric_bytes = 0;
};
// ramext_remote with spans on `tracer` (null: untraced): workloads.fill and
// hv.access per chunk, remotemem.load / remotemem.store charged per backend
// call.  `layers` (optional) receives the pass's layer counters.
PassResult RamextPass(std::uint64_t seed, Tracer* tracer, RamextLayers* layers);

// dataplane_sharded at the given thread count through RunShardedHotLoop
// (untraced; the fixed-work 1-thread comparison uses the same 4 shards).
PassResult DataplanePass(std::uint64_t seed, int threads);
int DataplaneThreads();

struct DataplaneLayers {
  zombie::hv::PagerStats stats;
  std::vector<double> lane_busy_s;  // wall time each lane spent in its work
  std::uint64_t round_trips = 0;
  std::uint64_t rider_pages = 0;
  std::uint64_t ring_acquisitions = 0;
  std::vector<std::unique_ptr<Tracer>> lane_tracers;
};
// The same sharded pager driven lane by lane from the benchmark, so each
// lane's fill / access / drain calls get spans on that lane's own tracer.
PassResult DataplaneTracedPass(std::uint64_t seed, int threads, std::int64_t epoch,
                               DataplaneLayers* layers);

struct ServeLayers {
  std::int64_t generate_ns = 0;
  std::uint64_t requests = 0;
  std::int64_t summary_ns = 0;  // four Percentiles::Summary calls
  std::uint64_t arrivals = 0;
  std::uint64_t placed = 0;
  std::uint64_t shed = 0;
  std::uint64_t zombie_wakes = 0;
};
// The serve_rack daemon pass, timing timeline generation and the latency
// summaries on the side.
PassResult ServeDaemonPass(std::uint64_t seed, ServeLayers* layers);

struct ReplayCounts {
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  std::uint64_t tick_fabric_ops = 0;
};
// Replays serve_rack's own timeline against the layers the daemon calls
// internally (EventQueue, admission, placement, extent alloc/release, rack
// ticks), with a span around each call.
std::vector<std::string> ServeReplay(std::uint64_t seed, Tracer* tracer, ReplayCounts* counts);

}  // namespace perfbench

#endif  // ZOMBIELAND_PERFBENCH_SRC_WORKLOADS_H_
