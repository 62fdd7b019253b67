// Tests for the online serving mode: the seeded request stream, the
// ServeDaemon's admission/backpressure loop, and fault composition through
// cloud::FaultPlan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/cloud/faults.h"
#include "src/serve/daemon.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/stream.h"

namespace zombie::serve {
namespace {

StreamConfig SmallStream() {
  StreamConfig config;
  config.seed = 7;
  config.rate_per_s = 20.0;
  config.horizon = 3 * kSecond;
  config.mean_lifetime = 1 * kSecond;
  config.min_memory = 1 * kGiB;
  config.max_memory = 2 * kGiB;
  config.memory_step = 1 * kGiB;
  config.vcpus = 1;
  return config;
}

// ---------------------------------------------------------------------------
// RequestStream.
// ---------------------------------------------------------------------------

TEST(RequestStream, DeterministicForSameSeed) {
  RequestStream a(SmallStream());
  RequestStream b(SmallStream());
  const auto ta = a.Generate();
  const auto tb = b.Generate();
  ASSERT_EQ(ta.size(), tb.size());
  ASSERT_FALSE(ta.empty());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].at, tb[i].at);
    EXPECT_EQ(ta[i].kind, tb[i].kind);
    EXPECT_EQ(ta[i].tenant, tb[i].tenant);
    EXPECT_EQ(ta[i].vm.id, tb[i].vm.id);
    EXPECT_EQ(ta[i].vm.reserved_memory, tb[i].vm.reserved_memory);
  }
}

TEST(RequestStream, DifferentSeedsDiffer) {
  StreamConfig other = SmallStream();
  other.seed = 8;
  const auto ta = RequestStream(SmallStream()).Generate();
  const auto tb = RequestStream(other).Generate();
  bool same = ta.size() == tb.size();
  if (same) {
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (ta[i].at != tb[i].at) {
        same = false;
        break;
      }
    }
  }
  EXPECT_FALSE(same);
}

TEST(RequestStream, TimelineSortedAndPairedArriveDepart) {
  const auto timeline = RequestStream(SmallStream()).Generate();
  std::map<hv::VmId, int> arrivals;
  std::map<hv::VmId, int> departures;
  SimTime prev = 0;
  for (const Request& req : timeline) {
    EXPECT_GE(req.at, prev);
    prev = req.at;
    if (req.kind == RequestKind::kArrive) {
      arrivals[req.vm.id]++;
      EXPECT_GT(req.vm.reserved_memory, 0u);
      EXPECT_GT(req.vm.vcpus, 0u);
    } else if (req.kind == RequestKind::kDepart) {
      departures[req.vm.id]++;
    }
  }
  // Every VM arrives exactly once and departs exactly once.
  EXPECT_EQ(arrivals.size(), departures.size());
  for (const auto& [vm, n] : arrivals) {
    EXPECT_EQ(n, 1);
    EXPECT_EQ(departures[vm], 1);
  }
}

TEST(RequestStream, FlashCrowdConcentratesArrivalsInBurst) {
  StreamConfig config = SmallStream();
  config.process = ArrivalProcess::kFlashCrowd;
  config.horizon = 10 * kSecond;
  config.rate_per_s = 10.0;
  config.burst_start = 4 * kSecond;
  config.burst_duration = 2 * kSecond;
  config.burst_multiplier = 8.0;
  RequestStream stream(config);
  EXPECT_NEAR(stream.RateAt(1 * kSecond), 10.0, 1e-9);
  EXPECT_NEAR(stream.RateAt(5 * kSecond), 80.0, 1e-9);
  EXPECT_NEAR(stream.PeakRate(), 80.0, 1e-9);
  std::size_t in_burst = 0;
  std::size_t outside = 0;
  for (const Request& req : stream.Generate()) {
    if (req.kind != RequestKind::kArrive) {
      continue;
    }
    const bool burst =
        req.at >= config.burst_start && req.at < config.burst_start + config.burst_duration;
    (burst ? in_burst : outside)++;
  }
  // 2s at 80/s vs 8s at 10/s: the burst window should out-arrive the rest.
  EXPECT_GT(in_burst, outside);
}

// ---------------------------------------------------------------------------
// ServeDaemon.
// ---------------------------------------------------------------------------

ServeConfig SmallRack() {
  ServeConfig config;
  config.hosts = 1;
  config.zombies = 2;
  config.host_capacity = {.cpus = 8, .memory = 8 * kGiB};
  config.admission_service = 1 * kMillisecond;
  return config;
}

TEST(ServeDaemon, ConservesEveryArrival) {
  ServeDaemon daemon(SmallRack());
  const auto timeline = RequestStream(SmallStream()).Generate();
  ASSERT_TRUE(daemon.Run(timeline).ok());
  ServeMetrics& m = daemon.metrics();
  EXPECT_GT(m.arrivals, 0u);
  // Every arrival is either admitted or shed at the gate (queue-full and
  // queue-timeout sheds happen after admission, so they are not in this sum)...
  const std::uint64_t gate_sheds =
      m.shed[static_cast<std::size_t>(ShedReason::kThrottled)] +
      m.shed[static_cast<std::size_t>(ShedReason::kTenantQuota)] +
      m.shed[static_cast<std::size_t>(ShedReason::kRackBudget)];
  EXPECT_EQ(m.arrivals, m.admitted + gate_sheds);
  // ...and after the full timeline drains nothing is left hosted or queued.
  EXPECT_EQ(daemon.live_vms(), 0u);
  EXPECT_EQ(daemon.queued(), 0u);
  EXPECT_TRUE(daemon.CheckHealth().ok());
  EXPECT_EQ(daemon.admission().admitted_memory(), 0u);
}

TEST(ServeDaemon, BoundedQueueShedsWhenFull) {
  ServeConfig config = SmallRack();
  config.zombies = 0;  // no spare capacity to wake
  // An over-generous gate admits far more than the one host can place, so
  // pressure lands on the bounded queue instead of the rack budget.
  config.admission.memory_headroom = 4.0;
  config.admission.cpu_overcommit = 8.0;
  config.queue_depth = 2;
  config.queue_timeout = 30 * kSecond;  // only the depth bound can shed
  StreamConfig stream = SmallStream();
  stream.rate_per_s = 60.0;
  stream.mean_lifetime = 20 * kSecond;  // hosted VMs never leave in-horizon
  ServeDaemon daemon(config);
  ASSERT_TRUE(daemon.Run(RequestStream(stream).Generate()).ok());
  EXPECT_GT(daemon.metrics().shed[static_cast<std::size_t>(ShedReason::kQueueFull)], 0u);
  EXPECT_TRUE(daemon.CheckHealth().ok());
}

TEST(ServeDaemon, QueueTimeoutShedsAndReleasesAdmission) {
  ServeConfig config = SmallRack();
  config.zombies = 0;
  config.admission.memory_headroom = 4.0;
  config.admission.cpu_overcommit = 8.0;
  config.queue_depth = 64;
  config.queue_timeout = 200 * kMillisecond;
  StreamConfig stream = SmallStream();
  stream.rate_per_s = 40.0;
  stream.mean_lifetime = 20 * kSecond;
  ServeDaemon daemon(config);
  ASSERT_TRUE(daemon.Run(RequestStream(stream).Generate()).ok());
  EXPECT_GT(daemon.metrics().shed[static_cast<std::size_t>(ShedReason::kQueueTimeout)], 0u);
  // Shed requests must release their admission: at drain time the gate's
  // books only hold VMs that are actually placed (none, at the end).
  EXPECT_EQ(daemon.queued(), 0u);
  EXPECT_TRUE(daemon.CheckHealth().ok());
}

TEST(ServeDaemon, BackpressureWakesZombies) {
  ServeConfig config = SmallRack();
  config.hosts = 1;
  config.zombies = 3;
  StreamConfig stream = SmallStream();
  stream.rate_per_s = 40.0;
  stream.mean_lifetime = 30 * kSecond;  // the backlog stays queued until the wake
  ServeDaemon daemon(config);
  const std::size_t asleep_before = daemon.sleeping_zombies().size();
  ASSERT_TRUE(daemon.Run(RequestStream(stream).Generate()).ok());
  EXPECT_GT(daemon.metrics().zombie_wakes, 0u);
  EXPECT_LT(daemon.sleeping_zombies().size(), asleep_before);
  EXPECT_GT(daemon.metrics().migration_stall_ms.count(), 0u);
  EXPECT_TRUE(daemon.CheckHealth().ok());
}

TEST(ServeDaemon, ThrottleShedsAtTypedReason) {
  ServeConfig config = SmallRack();
  config.throttle = {.rate_per_s = 5.0, .burst = 1.0};
  StreamConfig stream = SmallStream();
  stream.rate_per_s = 40.0;
  ServeDaemon daemon(config);
  ASSERT_TRUE(daemon.Run(RequestStream(stream).Generate()).ok());
  EXPECT_GT(daemon.metrics().shed[static_cast<std::size_t>(ShedReason::kThrottled)], 0u);
}

TEST(ServeDaemon, ComposesExternalFaultPlan) {
  ServeDaemon daemon(SmallRack());
  ASSERT_FALSE(daemon.sleeping_zombies().empty());
  cloud::FaultPlan plan;
  plan.events.push_back({.at = 1 * kSecond,
                         .kind = cloud::FaultKind::kHostCrash,
                         .host = daemon.sleeping_zombies().back()});
  plan.events.push_back({.at = 1500 * kMillisecond,
                         .kind = cloud::FaultKind::kControllerCrash,
                         .shard = 0});
  ASSERT_TRUE(daemon.Run(RequestStream(SmallStream()).Generate(), &plan).ok());
  // The crashed zombie's memory must have left the admission budget, the
  // pool must heal with zero orphaned buffers, and the run still drains.
  EXPECT_TRUE(daemon.CheckHealth().ok());
  EXPECT_EQ(daemon.queued(), 0u);
}

TEST(ServeDaemon, RepeatRunsProduceIdenticalMetrics) {
  const auto timeline = RequestStream(SmallStream()).Generate();
  auto run = [&timeline]() {
    ServeDaemon daemon(SmallRack());
    EXPECT_TRUE(daemon.Run(timeline).ok());
    return std::make_tuple(daemon.metrics().admitted, daemon.metrics().placed,
                           daemon.metrics().TotalShed(), daemon.metrics().zombie_wakes,
                           daemon.metrics().admission_wait_ms.Summary().p99,
                           daemon.metrics().placement_ms.Summary().p999);
  };
  EXPECT_EQ(run(), run());
}

TEST(ServeDaemon, SecondRunIsRejected) {
  const auto timeline = RequestStream(SmallStream()).Generate();
  ServeDaemon daemon(SmallRack());
  ASSERT_TRUE(daemon.Run(timeline).ok());
  const std::uint64_t arrivals = daemon.metrics().arrivals;
  const Status again = daemon.Run(timeline);
  EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(daemon.metrics().arrivals, arrivals);  // nothing replayed
  EXPECT_TRUE(daemon.CheckHealth().ok());
}

// ---------------------------------------------------------------------------
// Tie-order goldens: the full metrics of runs whose events meet at one
// instant.  At a shared instant the rack tick runs first, then timeline
// requests in timeline order, then events the run itself scheduled (gate
// verdicts, queue timeouts, wake completions) in the order they were
// scheduled.  Recorded from the tree that scheduled the whole timeline into
// the event queue up front.
// ---------------------------------------------------------------------------

struct ServeGolden {
  const char* name;
  std::uint64_t arrivals;
  std::uint64_t admitted;
  std::uint64_t placed;
  std::uint64_t departed;
  std::uint64_t cancelled;
  std::uint64_t resized;
  std::uint64_t resize_rejected;
  std::uint64_t zombie_wakes;
  std::uint64_t slo_violations;
  std::array<std::uint64_t, kShedReasonCount> shed;
  std::size_t power_samples;
  double power_mean;
  double admission_p50;
  double admission_p99;
  double placement_p50;
  double placement_p99;
  double fault_service_p50;
  double fault_service_p99;
  double stall_p50;
  double stall_p99;
};

void CheckServeGolden(const ServeGolden& golden, ServeMetrics& m) {
  SCOPED_TRACE(golden.name);
  EXPECT_EQ(m.arrivals, golden.arrivals);
  EXPECT_EQ(m.admitted, golden.admitted);
  EXPECT_EQ(m.placed, golden.placed);
  EXPECT_EQ(m.departed, golden.departed);
  EXPECT_EQ(m.cancelled, golden.cancelled);
  EXPECT_EQ(m.resized, golden.resized);
  EXPECT_EQ(m.resize_rejected, golden.resize_rejected);
  EXPECT_EQ(m.zombie_wakes, golden.zombie_wakes);
  EXPECT_EQ(m.slo_violations, golden.slo_violations);
  EXPECT_EQ(m.shed, golden.shed);
  EXPECT_EQ(m.power_pct.count(), golden.power_samples);
  EXPECT_DOUBLE_EQ(m.power_pct.mean(), golden.power_mean);
  const auto admission = m.admission_wait_ms.Summary();
  const auto placement = m.placement_ms.Summary();
  const auto fault_service = m.fault_service_us.Summary();
  const auto stall = m.migration_stall_ms.Summary();
  EXPECT_DOUBLE_EQ(admission.p50, golden.admission_p50);
  EXPECT_DOUBLE_EQ(admission.p99, golden.admission_p99);
  EXPECT_DOUBLE_EQ(placement.p50, golden.placement_p50);
  EXPECT_DOUBLE_EQ(placement.p99, golden.placement_p99);
  EXPECT_DOUBLE_EQ(fault_service.p50, golden.fault_service_p50);
  EXPECT_DOUBLE_EQ(fault_service.p99, golden.fault_service_p99);
  EXPECT_DOUBLE_EQ(stall.p50, golden.stall_p50);
  EXPECT_DOUBLE_EQ(stall.p99, golden.stall_p99);
}

Request At(Duration at, RequestKind kind, hv::VmId vm, std::uint32_t vcpus = 1,
           Bytes memory = 1 * kGiB) {
  Request req;
  req.at = at;
  req.kind = kind;
  req.vm.id = vm;
  req.vm.vcpus = vcpus;
  req.vm.reserved_memory = memory;
  return req;
}

// Out of time order on purpose, on one 8-vCPU host with 100 ms ticks, a
// 1 ms gate and 4 s zombie wakes:
//   - vm1 and vm2 arrive together at 0, and vm3 "before time" (at -5 ms)
//     ties with them there, after them in timeline order;
//   - vm4 arrives at 50 ms and its verdict is due at 51 ms, the instant vm1
//     departs: only with vm1 gone do its 4 vCPUs fit without a queue and a
//     zombie wake;
//   - vm5 arrives on the 100 ms tick and vm2 resizes on the 200 ms tick;
//   - vm6 and vm7 do not fit, queue, wake a zombie and place after it.
std::vector<Request> TieTimeline() {
  constexpr Duration ms = kMillisecond;
  return {
      At(51 * ms, RequestKind::kDepart, 1),
      At(0, RequestKind::kArrive, 1, 4),
      At(0, RequestKind::kArrive, 2),
      At(-5 * ms, RequestKind::kArrive, 3, 1, 2 * kGiB),
      At(50 * ms, RequestKind::kArrive, 4, 4),
      At(100 * ms, RequestKind::kArrive, 5, 1, 2 * kGiB),
      At(200 * ms, RequestKind::kResize, 2, 1, 2 * kGiB),
      At(5000 * ms, RequestKind::kArrive, 6, 4, 2 * kGiB),
      At(5001 * ms, RequestKind::kArrive, 7, 4, 2 * kGiB),
      At(300 * ms, RequestKind::kDepart, 3),
      At(9500 * ms, RequestKind::kDepart, 4),
      At(9600 * ms, RequestKind::kDepart, 5),
      At(9700 * ms, RequestKind::kDepart, 6),
      At(9800 * ms, RequestKind::kDepart, 7),
      At(9900 * ms, RequestKind::kDepart, 2),
  };
}

// vm1 and vm2 run on the only host, which crashes at 1 s.  Its lease runs
// out on a tick at 1.2 s or 1.3 s, when vm1 and vm2 depart: the tick that
// expires the host runs first and evicts the VM, so that departure finds
// nothing to tear down.
std::vector<Request> CrashTimeline() {
  constexpr Duration ms = kMillisecond;
  return {
      At(0, RequestKind::kArrive, 1),
      At(0, RequestKind::kArrive, 2),
      At(1200 * ms, RequestKind::kDepart, 1),
      At(1300 * ms, RequestKind::kDepart, 2),
  };
}

TEST(ServeDaemonGolden, TieOrderMatchesRecorded) {
  ServeConfig config = SmallRack();
  config.queue_timeout = 6 * kSecond;  // outlasts a zombie wake
  {
    const ServeGolden hand = {
        "hand-built ties",
        7, 7, 7, 7, 0, 1, 0, 1, 2,
        {0, 0, 0, 0, 0},
        161, 35.854761904761915,
        1, 7.639999999999997, 2, 4000.9400000000001,
        0.12, 0.12, 4000, 4000};
    ServeDaemon daemon(config);
    ASSERT_TRUE(daemon.Run(TieTimeline()).ok());
    CheckServeGolden(hand, daemon.metrics());
    EXPECT_TRUE(daemon.CheckHealth().ok());
  }
  {
    const ServeGolden crash = {
        "hand-built host crash",
        2, 2, 2, 1, 1, 0, 0, 0, 0,
        {0, 0, 0, 0, 0},
        75, 26.393333333333331,
        1.5, 1.99, 1.5, 1.99,
        0.12, 0.12, 0, 0};
    ServeDaemon daemon(config);
    cloud::FaultPlan plan;
    plan.events.push_back({.at = 1 * kSecond,
                           .kind = cloud::FaultKind::kHostCrash,
                           .host = daemon.live_hosts().front()});
    ASSERT_TRUE(daemon.Run(CrashTimeline(), &plan).ok());
    CheckServeGolden(crash, daemon.metrics());
  }
}

TEST(ServeDaemonGolden, BackpressureAndFaultRunsMatchRecorded) {
  StreamConfig stream = SmallStream();
  stream.rate_per_s = 12.0;
  stream.horizon = 10 * kSecond;
  stream.mean_lifetime = 2 * kSecond;
  const auto timeline = RequestStream(stream).Generate();
  ServeConfig config = SmallRack();
  config.zombies = 3;
  {
    const ServeGolden backpressure = {
        "backpressure",
        108, 83, 62, 62, 18, 7, 4, 2, 13,
        {0, 0, 25, 0, 3},
        257, 41.625165369649814,
        1, 1, 168.767788, 1930.7668001500001,
        0.12, 2.0140000000000002, 4000, 4000};
    ServeDaemon daemon(config);
    ASSERT_TRUE(daemon.Run(timeline).ok());
    CheckServeGolden(backpressure, daemon.metrics());
  }
  {
    const ServeGolden faults = {
        "fault plan",
        108, 61, 47, 47, 12, 5, 6, 2, 11,
        {0, 0, 47, 0, 2},
        257, 40.663998054474703,
        1, 1, 1, 1697.5110789199998,
        0.12, 2.0140000000000002, 4000, 4000};
    ServeDaemon daemon(config);
    cloud::FaultPlan plan;
    // A zombie crash on a tick instant and a controller crash between ticks.
    plan.events.push_back({.at = 1 * kSecond,
                           .kind = cloud::FaultKind::kHostCrash,
                           .host = daemon.sleeping_zombies().back()});
    plan.events.push_back({.at = 1550 * kMillisecond,
                           .kind = cloud::FaultKind::kControllerCrash,
                           .shard = 0});
    ASSERT_TRUE(daemon.Run(timeline, &plan).ok());
    CheckServeGolden(faults, daemon.metrics());
    EXPECT_TRUE(daemon.CheckHealth().ok());
  }
}

}  // namespace
}  // namespace zombie::serve
