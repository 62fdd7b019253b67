// The long-running serving daemon: zombieland as an online cloud front end.
//
// A ServeDaemon owns one disaggregated rack (awake hosts + zombie Sz servers
// lending their memory, per Section 4.4) and drains a deterministic request
// timeline in simulated time.  The timeline and the rack ticks are streamed
// in time order beside a common/event_queue that holds only what the run
// schedules (gate verdicts, queue timeouts, zombie-wake completions):
//
//   arrival ──> serial admission gate ──> AdmissionController::AdmitAt
//                  (admission wait)          │ quota / budget / throttle
//                                            v
//              shed (typed reason) <── no    placement (NovaScheduler +
//                                            remote extents)  ── no ──> bounded
//                                            │                          queue
//                                            v                          │
//                                        hosted VM  <── drain ── zombie wake
//
// Backpressure: admitted-but-unplaceable requests wait in a bounded FIFO;
// the queue going non-empty wakes a zombie (its memory re-enters the rack as
// local capacity); requests that outlive `queue_timeout` or find the queue
// full are shed with a typed reason and their admission released.
//
// Everything runs on the one simulated clock with seeded inputs and a fixed
// tie order at each instant (tick, then timeline requests in timeline order,
// then queued events in scheduling order), so a fixed seed reproduces the
// same report byte-for-byte under any sweep parallelism.
#ifndef ZOMBIELAND_SRC_SERVE_DAEMON_H_
#define ZOMBIELAND_SRC_SERVE_DAEMON_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/cloud/admission.h"
#include "src/cloud/faults.h"
#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/common/event_queue.h"
#include "src/common/result.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"

namespace zombie::serve {

struct ServeConfig {
  // Rack shape: `hosts` awake servers take VMs; `zombies` start in Sz with
  // their memory delegated to the pool.
  std::size_t hosts = 2;
  std::size_t zombies = 4;
  cloud::ServerCapacity host_capacity{.cpus = 8, .memory = 16 * kGiB};
  Bytes buff_size = 64 * kMiB;
  std::size_t controller_shards = 2;
  Duration lease_ttl = 300 * kMillisecond;
  Duration tick_period = 100 * kMillisecond;
  acpi::MachineProfile profile = acpi::MachineProfile::HpCompaqElite8300();

  // Admission gate.  The serial gate services one verdict per
  // `admission_service`, so admission wait is real queueing latency.
  cloud::AdmissionConfig admission;
  cloud::TokenBucketConfig throttle;  // rate_per_s == 0 disables
  Bytes tenant_memory_quota = 0;      // per-tenant cap; 0 = unlimited
  std::uint32_t tenants = 4;          // quota is installed for [0, tenants)
  Duration admission_service = 500 * kMicrosecond;

  // Backpressure loop.
  std::size_t queue_depth = 64;
  Duration queue_timeout = 2 * kSecond;

  // Placement.
  double local_floor = 0.5;
  cloud::PlacementStrategy strategy = cloud::PlacementStrategy::kStack;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeConfig config);

  // Drains the timeline (plus recurring rack ticks) to completion, composing
  // the optional fault plan onto the same simulated clock.  The timeline need
  // not be sorted.  Returns an error if the rack could not be assembled or
  // the daemon already ran (its clock and rack are spent); request-level
  // failures are metrics, not errors.
  [[nodiscard]] Status Run(const std::vector<Request>& timeline,
             const cloud::FaultPlan* faults = nullptr);

  ServeMetrics& metrics() { return metrics_; }
  cloud::Rack& rack() { return *rack_; }
  const cloud::AdmissionController& admission() const { return admission_; }

  // End-of-run health: ownership invariants hold and no buffer is orphaned.
  [[nodiscard]] Status CheckHealth() const;

  std::size_t live_vms() const { return placements_.size(); }
  std::size_t queued() const { return pending_.size(); }
  // Hosts currently eligible for placement / zombies still asleep.  Useful
  // for building fault plans against concrete server ids (query before Run:
  // wakes and lease expiries mutate both lists).
  const std::vector<remotemem::ServerId>& live_hosts() const { return host_ids_; }
  const std::vector<remotemem::ServerId>& sleeping_zombies() const { return zombie_ids_; }

 private:
  struct Placement {
    remotemem::ServerId host = remotemem::kNilServer;
    remotemem::RemoteExtent* extent = nullptr;  // null for purely local VMs
    std::vector<remotemem::RemoteExtent*> growths;  // resize extensions
    Bytes booked = 0;  // current admitted reservation
    std::uint32_t booked_vcpus = 0;
  };
  struct Pending {
    Request req;
    SimTime arrived_at = 0;
    EventQueue::EventId timeout_id = 0;
  };

  void OnArrive(const Request& req);
  void Decide(const Request& req, SimTime arrived_at);
  void OnDepart(const Request& req);
  void OnResize(const Request& req);
  void OnTick(cloud::FaultInjector* injector);

  // Places an admitted request now.  Returns false if no host qualifies
  // (caller queues or sheds).
  bool TryPlace(const Request& req, SimTime arrived_at, Duration stall);
  void Enqueue(const Request& req, SimTime arrived_at);
  void Shed(ShedReason reason, hv::VmId admitted_vm);
  // Re-tries queued requests in FIFO order (head-of-line blocking preserved:
  // the drain stops at the first request that still does not fit).
  void DrainPending(Duration stall);
  // Wakes one zombie if any remain; its lent memory leaves the pool and
  // returns as local capacity.  Drains the queue after the wake latency.
  void MaybeWakeZombie();

  std::vector<cloud::Server*> AwakeHosts();
  void ReleaseVmResources(hv::VmId vm, Placement& placement);

  ServeConfig config_;
  std::unique_ptr<cloud::Rack> rack_;
  cloud::AdmissionController admission_;
  cloud::NovaScheduler scheduler_;
  EventQueue queue_;
  ServeMetrics metrics_;

  std::vector<remotemem::ServerId> host_ids_;
  std::vector<remotemem::ServerId> zombie_ids_;  // still asleep, wakeable
  // What each server currently contributes to the admission budget, so
  // wakes and lease expiries adjust capacity exactly once.
  std::map<remotemem::ServerId, std::pair<Bytes, std::uint32_t>> registered_;

  std::map<hv::VmId, Placement> placements_;
  std::deque<Pending> pending_;
  SimTime gate_free_at_ = 0;
  bool wake_in_flight_ = false;
  bool ran_ = false;
  Status setup_error_;
};

}  // namespace zombie::serve

#endif  // ZOMBIELAND_SRC_SERVE_DAEMON_H_
