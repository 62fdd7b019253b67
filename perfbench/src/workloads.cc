#include "perfbench/src/workloads.h"

#include <algorithm>
#include <map>
#include <span>
#include <thread>

#include "src/acpi/machine.h"
#include "src/cloud/admission.h"
#include "src/cloud/placement.h"
#include "src/cloud/rack.h"
#include "src/common/event_queue.h"
#include "src/common/work_queue.h"
#include "src/hv/backend.h"
#include "src/hv/replacement.h"
#include "src/hv/sharded_pager.h"
#include "src/serve/daemon.h"
#include "src/serve/stream.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/sharded_hotloop.h"

namespace perfbench {
namespace {

using zombie::Duration;
using zombie::kGiB;
using zombie::kMillisecond;
using zombie::kSecond;
using zombie::Result;
using zombie::SimTime;
namespace cloud = zombie::cloud;
namespace hv = zombie::hv;
namespace remotemem = zombie::remotemem;
namespace serve = zombie::serve;
namespace wl = zombie::workloads;

// ramext_remote: 64 Ki pages, half of them local.  The simulator's state for
// them (page table, replacement lists, extent bookkeeping; about 4 MB) is
// larger than a core's 2 MiB L2.
constexpr std::uint64_t kRamextPages = 64 * 1024;
constexpr std::uint64_t kRamextAccesses = 6'000'000;
constexpr std::size_t kRamextZombies = 4;

// dataplane_sharded: a cache-resident footprint (with 64 Ki pages the
// 4-thread rate swung from 21 M to 50 M accesses/s over 5 runs).  Four
// shards whatever the thread count, so 1 and N threads simulate the same work.
constexpr std::uint64_t kDataplanePages = 4096;
constexpr std::uint32_t kDataplaneShards = 4;
constexpr std::uint64_t kDataplaneAccesses = 16'000'000;
constexpr std::uint32_t kDataplaneBatchPages = 8;

constexpr std::size_t kChunk = 1024;  // accesses per FillBatch/AccessBatch call
constexpr std::size_t kLaneRecords = 20'000;

const cloud::ServerCapacity kServer{.cpus = 8, .memory = 16 * kGiB};

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string Numbered(const char* prefix, std::size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

void Put(Fingerprint* fp, const char* name, double value) { fp->emplace_back(name, value); }
void Put(Fingerprint* fp, const char* name, std::uint64_t value) {
  fp->emplace_back(name, static_cast<double>(value));
}

void PutPagerStats(Fingerprint* fp, const hv::PagerStats& stats) {
  Put(fp, "accesses", stats.accesses);
  Put(fp, "faults", stats.faults);
  Put(fp, "major_faults", stats.major_faults);
  Put(fp, "evictions", stats.evictions);
  Put(fp, "writebacks", stats.writebacks);
  Put(fp, "policy_cycles", static_cast<std::uint64_t>(stats.policy_cycles));
  Put(fp, "total_cost_ns", static_cast<std::uint64_t>(stats.total_cost));
}

// Counts, and when traced times, every call into the wrapped backend.
// HostPager::AccessBatch prices a failed backend call at zero cost and
// PagerStats counts only successes, so failures are visible only here.
class CountingBackend final : public hv::PageBackend {
 public:
  CountingBackend(hv::PageBackend* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] Result<Duration> StorePage(hv::PageIndex page) override {
    ++stores_;
    return Count(Timed("remotemem.store", [&] { return inner_->StorePage(page); }));
  }
  [[nodiscard]] Result<Duration> LoadPage(hv::PageIndex page) override {
    ++loads_;
    return Count(Timed("remotemem.load", [&] { return inner_->LoadPage(page); }));
  }
  std::string name() const override { return inner_->name(); }
  std::uint64_t capacity_pages() const override { return inner_->capacity_pages(); }

  std::uint64_t loads() const { return loads_; }
  std::uint64_t stores() const { return stores_; }
  std::uint64_t failures() const { return failures_; }

 private:
  template <typename Call>
  Result<Duration> Timed(const char* layer, Call call) {
    if (tracer_ == nullptr) {
      return call();
    }
    const std::int64_t start = NowNs();
    Result<Duration> result = call();
    tracer_->Charge(layer, NowNs() - start);
    return result;
  }
  Result<Duration> Count(Result<Duration> result) {
    if (!result.ok()) {
      ++failures_;
    }
    return result;
  }

  hv::PageBackend* inner_;
  Tracer* tracer_;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace

PassResult RamextPass(std::uint64_t seed, Tracer* tracer, RamextLayers* layers) {
  PassResult result;
  const std::int64_t t0 = NowNs();
  cloud::Rack rack;  // 64 MiB accounting-only buffers, one controller shard
  const auto profile = zombie::acpi::MachineProfile::HpCompaqElite8300();
  const remotemem::ServerId user = rack.AddServer("user", profile, kServer).id();
  for (std::size_t z = 0; z < kRamextZombies; ++z) {
    const remotemem::ServerId id =
        rack.AddServer(Numbered("zombie", z + 1), profile, kServer).id();
    if (zombie::Status pushed = rack.PushToZombie(id); !pushed.ok()) {
      result.problems.push_back("PushToZombie: " + pushed.ToString());
      return result;
    }
  }
  auto extent = rack.manager(user).AllocExtension(zombie::PagesToBytes(kRamextPages));
  if (!extent.ok()) {
    result.problems.push_back("AllocExtension: " + extent.status().ToString());
    return result;
  }
  hv::RemoteBackend remote(extent.value());
  CountingBackend backend(&remote, tracer);
  const hv::PagingParams params;
  hv::HostPager pager(kRamextPages, kRamextPages / 2,
                      hv::MakePolicy(hv::PolicyKind::kMixed, params), &backend, params);
  wl::AccessPattern pattern(kRamextPages, wl::HotloopPattern("tiered"), seed);
  std::vector<hv::PageAccess> buffer(kChunk);
  rack.fabric().ResetCounters();
  const std::int64_t t1 = NowNs();

  Duration simulated = 0;
  {
    Scope pass(tracer, "ramext_remote.pass");
    for (std::uint64_t done = 0; done < kRamextAccesses;) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, kRamextAccesses - done));
      const std::span<hv::PageAccess> chunk(buffer.data(), n);
      {
        Scope fill(tracer, "workloads.fill");
        pattern.FillBatch(chunk);
      }
      {
        Scope access(tracer, "hv.access");
        simulated += pager.AccessBatch(chunk);
      }
      done += n;
    }
  }
  const std::int64_t t2 = NowNs();

  const hv::PagerStats& stats = pager.stats();
  const remotemem::RemoteExtent& ext = *extent.value();
  result.setup_s = Seconds(t1 - t0);
  result.run_s = Seconds(t2 - t1);
  result.ops = stats.accesses;
  result.failed = backend.failures();
  PutPagerStats(&result.fingerprint, stats);
  Put(&result.fingerprint, "simulated_ns", static_cast<std::uint64_t>(simulated));
  Put(&result.fingerprint, "remote_reads", ext.remote_reads());
  Put(&result.fingerprint, "remote_writes", ext.remote_writes());
  Put(&result.fingerprint, "mirror_reads", ext.mirror_reads());
  Put(&result.fingerprint, "fabric_ops", rack.fabric().total_operations());
  Put(&result.fingerprint, "fabric_bytes", static_cast<std::uint64_t>(rack.fabric().total_bytes()));
  Put(&result.fingerprint, "backend_failures", backend.failures());

  if (stats.accesses != kRamextAccesses) {
    result.problems.push_back("ramext_remote: pager saw fewer accesses than issued");
  }
  if (stats.major_faults != backend.loads() || stats.writebacks != backend.stores()) {
    result.problems.push_back("ramext_remote: PagerStats disagree with the backend's call counts");
  }
  if (ext.remote_reads() + ext.mirror_reads() + backend.failures() < backend.loads() ||
      ext.remote_writes() > backend.stores()) {
    result.problems.push_back("ramext_remote: extent counters disagree with the backend's calls");
  }
  if (layers != nullptr) {
    layers->stats = stats;
    layers->remote_reads = ext.remote_reads();
    layers->remote_writes = ext.remote_writes();
    layers->mirror_reads = ext.mirror_reads();
    layers->fabric_ops = rack.fabric().total_operations();
    layers->fabric_bytes = rack.fabric().total_bytes();
  }
  return result;
}

namespace {

wl::ShardedHotLoopOptions DataplaneOptions(std::uint64_t seed, int threads) {
  wl::ShardedHotLoopOptions options;
  options.footprint_pages = kDataplanePages;
  options.local_frames = kDataplanePages / 2;
  options.policy = hv::PolicyKind::kMixed;
  options.pattern = wl::HotloopPattern("tiered");
  options.accesses = kDataplaneAccesses;
  options.seed = seed;
  options.shards = kDataplaneShards;
  options.threads = threads;
  options.fault_batch.batch_pages = kDataplaneBatchPages;
  options.chunk = kChunk;
  return options;
}

hv::ShardedPagerConfig DataplanePagerConfig(const wl::ShardedHotLoopOptions& options) {
  hv::ShardedPagerConfig config;
  config.shards = options.shards;
  config.seed = options.seed;
  config.fault_batch = options.fault_batch;
  return config;
}

void FinishDataplane(const hv::PagerStats& stats, std::uint64_t round_trips,
                     std::uint64_t rider_pages, std::uint64_t ring_acquisitions,
                     PassResult* result) {
  result->ops = stats.accesses;
  PutPagerStats(&result->fingerprint, stats);
  Put(&result->fingerprint, "round_trips", round_trips);
  Put(&result->fingerprint, "rider_pages", rider_pages);
  Put(&result->fingerprint, "ring_acquisitions", ring_acquisitions);
  if (stats.accesses != kDataplaneAccesses) {
    result->problems.push_back("dataplane_sharded: lanes saw fewer accesses than issued");
  }
}

// The access budget split RunShardedHotLoop uses: proportional to the pages
// each shard owns, the remainder round-robin from shard 0.
std::vector<std::uint64_t> LaneBudgets(const hv::ShardedPager& pager, std::uint64_t accesses) {
  const std::uint32_t shards = pager.shards();
  std::vector<std::uint64_t> budget(shards, 0);
  std::uint64_t assigned = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    budget[s] = accesses * pager.shard_pages(s) / std::max<std::uint64_t>(pager.guest_pages(), 1);
    assigned += budget[s];
  }
  for (std::uint32_t s = 0; assigned < accesses; s = (s + 1) % shards) {
    if (pager.shard_pages(s) != 0) {
      ++budget[s];
      ++assigned;
    }
  }
  return budget;
}

serve::ServeConfig ServeRackConfig() {
  serve::ServeConfig config;
  config.hosts = 16;
  config.zombies = 32;
  // One verdict per 8 ms: the serial gate runs at 64% of its 125 req/s
  // capacity, so arrivals queue for it (p99 wait ~50 ms).  Nearer saturation
  // a departure can overtake its own admission and the VM leaks (README.md,
  // model gap 3); the leaks then fill the rack and make the cost seed-bound.
  config.admission_service = 8 * kMillisecond;
  return config;
}

serve::StreamConfig ServeStream(std::uint64_t seed) {
  serve::StreamConfig stream;
  stream.seed = seed;
  stream.process = serve::ArrivalProcess::kPoisson;
  stream.rate_per_s = 80.0;
  stream.horizon = 300 * kSecond;
  stream.tenants = 4;
  stream.mean_lifetime = 2 * kSecond;
  // Memory-bound shapes (one vCPU, 2-6 GiB): hosts run out of RAM first, so
  // the remote pool and zombie wakes decide what fits.
  stream.vcpus = 1;
  stream.min_memory = 2 * kGiB;
  stream.max_memory = 6 * kGiB;
  stream.memory_step = 1 * kGiB;
  return stream;
}

void PutSummary(Fingerprint* fp, const char* prefix, const zombie::PercentileSummary& s) {
  const std::string p(prefix);
  fp->emplace_back(p + "_count", static_cast<double>(s.count));
  fp->emplace_back(p + "_p50", s.p50);
  fp->emplace_back(p + "_p99", s.p99);
  fp->emplace_back(p + "_p999", s.p999);
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kRamextRemote:
      return "ramext_remote";
    case Workload::kDataplaneSharded:
      return "dataplane_sharded";
    case Workload::kServeRack:
      return "serve_rack";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

PassResult RunPass(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kRamextRemote:
      return RamextPass(seed, nullptr, nullptr);
    case Workload::kDataplaneSharded:
      return DataplanePass(seed, DataplaneThreads());
    case Workload::kServeRack:
      return ServeDaemonPass(seed, nullptr);
  }
  return {};
}

int DataplaneThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, kDataplaneShards));
}

PassResult DataplanePass(std::uint64_t seed, int threads) {
  PassResult result;
  const wl::ShardedHotLoopOptions options = DataplaneOptions(seed, threads);
  // RunShardedHotLoop times only its lanes (wall_seconds); the rest of the
  // call (building the sharded pager, merging results) is its set-up.
  const std::int64_t t1 = NowNs();
  const wl::ShardedHotLoopResult run = wl::RunShardedHotLoop(options);
  const std::int64_t t2 = NowNs();
  result.setup_s = Seconds(t2 - t1) - run.wall_seconds;
  result.run_s = run.wall_seconds;
  FinishDataplane(run.stats, run.round_trips, run.rider_pages, run.ring_acquisitions, &result);
  return result;
}

PassResult DataplaneTracedPass(std::uint64_t seed, int threads, std::int64_t epoch,
                               DataplaneLayers* layers) {
  PassResult result;
  const wl::ShardedHotLoopOptions options = DataplaneOptions(seed, threads);
  const std::int64_t t0 = NowNs();
  hv::ShardedPager pager(options.footprint_pages, options.local_frames, options.policy,
                         options.backend_latency, DataplanePagerConfig(options));
  const std::uint32_t shards = pager.shards();
  const std::vector<std::uint64_t> budget = LaneBudgets(pager, options.accesses);
  layers->lane_busy_s.assign(shards, 0.0);
  layers->lane_tracers.clear();
  for (std::uint32_t s = 0; s < shards; ++s) {
    layers->lane_tracers.push_back(std::make_unique<Tracer>(100 + s, epoch, kLaneRecords));
  }
  const std::int64_t t1 = NowNs();

  // Each lane touches only its own pager lane, tracer and busy slot.
  const auto run_lane = [&](std::size_t index) {
    const auto s = static_cast<std::uint32_t>(index);
    if (pager.shard_pages(s) == 0 || budget[s] == 0) {
      return;
    }
    Tracer* tracer = layers->lane_tracers[s].get();
    const std::int64_t start = NowNs();
    {
      Scope lane(tracer, "hv.lane", s);
      wl::AccessPattern pattern(pager.shard_pages(s), options.pattern, pager.shard_seed(s));
      std::vector<hv::PageAccess> buffer(options.chunk);
      for (std::uint64_t done = 0; done < budget[s];) {
        const auto n =
            static_cast<std::size_t>(std::min<std::uint64_t>(options.chunk, budget[s] - done));
        const std::span<hv::PageAccess> chunk(buffer.data(), n);
        {
          Scope fill(tracer, "workloads.fill");
          pattern.FillBatch(chunk);
        }
        {
          Scope access(tracer, "hv.access");
          (void)pager.AccessShard(s, chunk);
        }
        done += n;
      }
      Scope drain(tracer, "hv.drain");
      (void)pager.DrainShard(s);
    }
    layers->lane_busy_s[s] = Seconds(NowNs() - start);
  };
  {
    zombie::WorkQueue queue(threads);
    queue.RunBatch(shards, run_lane);
  }
  const std::int64_t t2 = NowNs();

  result.setup_s = Seconds(t1 - t0);
  result.run_s = Seconds(t2 - t1);
  layers->stats = pager.MergedStats();
  layers->round_trips = pager.round_trips();
  layers->rider_pages = pager.rider_pages();
  layers->ring_acquisitions = pager.ring().acquisitions();
  FinishDataplane(layers->stats, layers->round_trips, layers->rider_pages,
                  layers->ring_acquisitions, &result);
  return result;
}

PassResult ServeDaemonPass(std::uint64_t seed, ServeLayers* layers) {
  PassResult result;
  const std::int64_t t0 = NowNs();
  const std::vector<serve::Request> timeline = serve::RequestStream(ServeStream(seed)).Generate();
  const std::int64_t t_generated = NowNs();
  serve::ServeDaemon daemon(ServeRackConfig());
  const std::int64_t t1 = NowNs();
  const zombie::Status ran = daemon.Run(timeline);
  const std::int64_t t2 = NowNs();
  result.setup_s = Seconds(t1 - t0);
  result.run_s = Seconds(t2 - t1);
  result.ops = timeline.size();

  if (!ran.ok()) {
    result.problems.push_back("ServeDaemon::Run: " + ran.ToString());
    result.failed = result.ops;
    return result;
  }
  if (zombie::Status health = daemon.CheckHealth(); !health.ok()) {
    result.problems.push_back("ServeDaemon::CheckHealth: " + health.ToString());
  }
  serve::ServeMetrics& m = daemon.metrics();
  const std::int64_t s0 = NowNs();
  const zombie::PercentileSummary admission = m.admission_wait_ms.Summary();
  const zombie::PercentileSummary placement = m.placement_ms.Summary();
  const zombie::PercentileSummary fault_service = m.fault_service_us.Summary();
  const zombie::PercentileSummary stall = m.migration_stall_ms.Summary();
  const std::int64_t s1 = NowNs();

  Fingerprint& fp = result.fingerprint;
  Put(&fp, "requests", static_cast<std::uint64_t>(timeline.size()));
  Put(&fp, "arrivals", m.arrivals);
  Put(&fp, "admitted", m.admitted);
  Put(&fp, "placed", m.placed);
  Put(&fp, "departed", m.departed);
  Put(&fp, "cancelled", m.cancelled);
  Put(&fp, "resized", m.resized);
  Put(&fp, "resize_rejected", m.resize_rejected);
  Put(&fp, "zombie_wakes", m.zombie_wakes);
  Put(&fp, "slo_violations", m.slo_violations);
  for (std::size_t r = 0; r < serve::kShedReasonCount; ++r) {
    fp.emplace_back(std::string("shed_") + serve::ShedReasonName(static_cast<serve::ShedReason>(r)),
                    static_cast<double>(m.shed[r]));
  }
  Put(&fp, "queued_at_end", static_cast<std::uint64_t>(daemon.queued()));
  Put(&fp, "live_vms_at_end", static_cast<std::uint64_t>(daemon.live_vms()));
  PutSummary(&fp, "admission_wait_ms", admission);
  PutSummary(&fp, "placement_ms", placement);
  PutSummary(&fp, "fault_service_us", fault_service);
  PutSummary(&fp, "migration_stall_ms", stall);
  Put(&fp, "power_pct_mean", m.power_pct.mean());

  // Every arrival ends placed, shed, cancelled while queued, or still queued.
  if (m.arrivals != m.placed + m.TotalShed() + m.cancelled + daemon.queued()) {
    result.problems.push_back("serve_rack: arrivals != placed + shed + cancelled + queued");
  }
  if (layers != nullptr) {
    layers->generate_ns = t_generated - t0;
    layers->requests = timeline.size();
    layers->summary_ns = s1 - s0;
    layers->arrivals = m.arrivals;
    layers->placed = m.placed;
    layers->shed = m.TotalShed();
    layers->zombie_wakes = m.zombie_wakes;
  }
  return result;
}

std::vector<std::string> ServeReplay(std::uint64_t seed, Tracer* tracer, ReplayCounts* counts) {
  std::vector<std::string> problems;
  const serve::ServeConfig config = ServeRackConfig();
  const std::vector<serve::Request> timeline = serve::RequestStream(ServeStream(seed)).Generate();

  // The daemon's rack and gate, built the way ServeDaemon builds them.
  cloud::RackConfig rack_config;
  rack_config.buff_size = config.buff_size;
  rack_config.controller_shards = config.controller_shards;
  rack_config.lease_ttl = config.lease_ttl;
  rack_config.tick_period = config.tick_period;
  cloud::Rack rack(rack_config);
  cloud::AdmissionController admission(config.admission);
  cloud::NovaScheduler scheduler(cloud::PlacementConfig{.local_memory_floor = config.local_floor,
                                                        .strategy = config.strategy});
  std::vector<cloud::Server*> hosts;
  for (std::size_t i = 0; i < config.hosts; ++i) {
    hosts.push_back(
        &rack.AddServer(Numbered("host", i + 1), config.profile, config.host_capacity));
    admission.AddCapacity(config.host_capacity.memory, config.host_capacity.cpus);
  }
  for (std::size_t i = 0; i < config.zombies; ++i) {
    cloud::Server& z =
        rack.AddServer(Numbered("z", i + 1), config.profile, config.host_capacity);
    if (zombie::Status pushed = rack.PushToZombie(z.id()); !pushed.ok()) {
      problems.push_back("PushToZombie: " + pushed.ToString());
      return problems;
    }
    admission.AddCapacity(z.lent_memory(), 0);
  }

  struct Live {
    remotemem::ServerId host = remotemem::kNilServer;
    remotemem::RemoteExtent* extent = nullptr;
  };
  std::map<zombie::hv::VmId, Live> live;
  zombie::EventQueue queue;
  const auto fail = [&](const std::string& what, const zombie::Status& status) {
    problems.push_back("serve replay: " + what + ": " + status.ToString());
  };

  SimTime end = 0;
  for (const serve::Request& req : timeline) {
    end = std::max(end, req.at);
  }
  end += config.queue_timeout + 2 * config.tick_period;
  for (SimTime t = config.tick_period; t <= end; t += config.tick_period) {
    queue.ScheduleAt(t, [&] {
      const std::uint64_t before = rack.fabric().total_operations();
      const auto expired = [&] {
        Scope span(tracer, "cloud.tick");
        return rack.Tick();
      }();
      counts->tick_fabric_ops += rack.fabric().total_operations() - before;
      ++counts->ticks;
      if (!expired.empty()) {
        problems.push_back("serve replay: a lease expired with no fault injected");
      }
    });
  }

  for (const serve::Request& req : timeline) {
    const zombie::hv::VmId id = req.vm.id;
    if (req.kind == serve::RequestKind::kArrive) {
      queue.ScheduleAt(req.at, [&, req, id] {
        const cloud::AdmissionReject verdict = [&] {
          Scope span(tracer, "cloud.admit", id);
          return admission.AdmitAt(queue.now(), req.tenant, req.vm);
        }();
        if (verdict != cloud::AdmissionReject::kNone) {
          return;
        }
        const auto decision = [&] {
          Scope span(tracer, "cloud.place", id);
          scheduler.set_remote_pool(rack.plane().FreeRemoteBytes());
          return scheduler.Place(hosts, req.vm);
        }();
        cloud::Server* host = decision.has_value() ? rack.FindServer(decision->host) : nullptr;
        if (host == nullptr || !host->HostVm(req.vm, decision->local_bytes).ok()) {
          // Unplaceable now; the daemon would queue it, the replay lets go.
          Scope span(tracer, "cloud.admit", id);
          if (zombie::Status released = admission.Release(id); !released.ok()) {
            fail("Release", released);
          }
          return;
        }
        Live placed{decision->host, nullptr};
        if (decision->remote_bytes > 0) {
          auto alloc = [&] {
            Scope span(tracer, "remotemem.alloc_ext", id);
            return rack.manager(decision->host).AllocExtension(decision->remote_bytes);
          }();
          if (!alloc.ok()) {
            fail("AllocExtension", alloc.status());
            return;
          }
          placed.extent = alloc.value();
        }
        live[id] = placed;
      });
    } else if (req.kind == serve::RequestKind::kDepart) {
      // Resizes are left out: the daemon pass covers them.
      queue.ScheduleAt(req.at, [&, id] {
        const auto it = live.find(id);
        if (it == live.end()) {
          return;
        }
        if (zombie::Status dropped = rack.FindServer(it->second.host)->DropVm(id); !dropped.ok()) {
          fail("DropVm", dropped);
        }
        if (it->second.extent != nullptr) {
          Scope span(tracer, "remotemem.release_ext", id);
          if (zombie::Status released = rack.manager(it->second.host).ReleaseExtent(it->second.extent);
              !released.ok()) {
            fail("ReleaseExtent", released);
          }
        }
        {
          Scope span(tracer, "cloud.admit", id);
          if (zombie::Status released = admission.Release(id); !released.ok()) {
            fail("Release", released);
          }
        }
        live.erase(it);
      });
    }
  }

  {
    Scope loop(tracer, "common.event_loop");
    counts->events = queue.Run();
  }
  if (zombie::Status invariants = rack.plane().CheckInvariants(); !invariants.ok()) {
    fail("CheckInvariants", invariants);
  }
  return problems;
}

}  // namespace perfbench
