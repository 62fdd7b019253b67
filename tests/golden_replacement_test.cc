// Golden-sequence regression tests for the replacement policies and the
// pager pipeline.
//
// The victim orders and PagerStats below were recorded from the original
// std::list + std::unordered_map implementation (PR 1 tree) on fixed seeds.
// The intrusive-list reimplementation must reproduce them bit-for-bit: any
// deviation means the refactor changed simulated results, not just speed.
//
// To re-record after an *intentional* behaviour change, run with
// ZOMBIE_GOLDEN_PRINT=1 and paste the printed blocks over the constants.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/cloud/rack.h"
#include "src/common/rng.h"
#include "src/hv/backend.h"
#include "src/hv/pager.h"
#include "src/hv/replacement.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie::hv {
namespace {

bool PrintMode() {
  const char* env = std::getenv("ZOMBIE_GOLDEN_PRINT");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Policy-level goldens: a deterministic driver that exercises OnPageIn,
// PickVictim and OnPageGone the way HostPager does, on a fixed Rng stream.
// ---------------------------------------------------------------------------

struct DriveResult {
  std::vector<PageIndex> first_victims;  // first 24 victim pages, in order
  std::uint64_t victim_hash = 1469598103934665603ULL;  // over (page, cycles)
  std::uint64_t victims = 0;
  Cycles cycles_total = 0;
};

DriveResult DrivePolicy(PolicyKind kind, std::uint64_t seed) {
  constexpr std::uint64_t kPages = 96;
  constexpr std::uint64_t kFrames = 24;
  constexpr std::uint64_t kSteps = 20'000;
  PagingParams params;
  auto policy = MakePolicy(kind, params, /*mixed_depth=*/5);
  GuestPageTable table(kPages);
  std::uint64_t free_frames = kFrames;
  std::uint64_t since_clear = 0;
  Rng rng(seed);
  DriveResult out;
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    const PageIndex page = rng.NextBelow(kPages);
    if (++since_clear >= 256) {
      table.ClearAccessedBits();
      since_clear = 0;
    }
    PageTableEntry& entry = table.at(page);
    if (!entry.present) {
      if (free_frames == 0) {
        const VictimChoice choice = policy->PickVictim(table);
        table.at(choice.page).present = false;
        ++free_frames;
        out.victim_hash = HashMix(out.victim_hash, choice.page);
        out.victim_hash = HashMix(out.victim_hash, static_cast<std::uint64_t>(choice.cycles));
        if (out.first_victims.size() < 24) {
          out.first_victims.push_back(choice.page);
        }
        ++out.victims;
        out.cycles_total += choice.cycles;
      }
      entry.present = true;
      --free_frames;
      policy->OnPageIn(page);
    }
    table.SetAccessed(entry);
    // Every 97 steps a present page vanishes outside the policy's choice
    // (the OnPageGone path a migration or free would take).
    if (step % 97 == 96) {
      const PageIndex gone = rng.NextBelow(kPages);
      PageTableEntry& g = table.at(gone);
      if (g.present) {
        g.present = false;
        ++free_frames;
        policy->OnPageGone(gone);
      }
    }
  }
  return out;
}

struct PolicyGolden {
  PolicyKind kind;
  std::uint64_t seed;
  std::vector<PageIndex> first_victims;
  std::uint64_t victim_hash;
  std::uint64_t victims;
  Cycles cycles_total;
};

void CheckPolicyGolden(const PolicyGolden& golden) {
  const DriveResult got = DrivePolicy(golden.kind, golden.seed);
  if (PrintMode()) {
    std::printf("{PolicyKind::k%s, %lluu,\n {", std::string(PolicyKindName(golden.kind)).c_str(),
                static_cast<unsigned long long>(golden.seed));
    for (std::size_t i = 0; i < got.first_victims.size(); ++i) {
      std::printf("%s%llu", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(got.first_victims[i]));
    }
    std::printf("},\n %lluULL, %llu, %lld},\n",
                static_cast<unsigned long long>(got.victim_hash),
                static_cast<unsigned long long>(got.victims),
                static_cast<long long>(got.cycles_total));
    return;
  }
  EXPECT_EQ(got.first_victims, golden.first_victims);
  EXPECT_EQ(got.victim_hash, golden.victim_hash);
  EXPECT_EQ(got.victims, golden.victims);
  EXPECT_EQ(got.cycles_total, golden.cycles_total);
}

// Recorded from the pre-intrusive-list implementation; see file comment.
const PolicyGolden kPolicyGoldens[] = {
    {PolicyKind::kFifo, 1u,
     {67, 49, 55, 37, 66, 13, 6, 36, 83, 52, 89, 91, 64, 57, 85, 7, 47, 4, 44, 58, 33, 38, 20,
      82},
     9544292901908832370ULL, 14944, 2017440},
    {PolicyKind::kClock, 1u,
     {67, 49, 55, 37, 66, 13, 6, 36, 83, 52, 89, 91, 64, 57, 85, 7, 47, 4, 44, 58, 33, 38, 20,
      82},
     9325845160125053839ULL, 14941, 22014817},
    {PolicyKind::kMixed, 1u,
     {13, 91, 4, 82, 67, 49, 55, 66, 6, 83, 52, 89, 64, 57, 85, 7, 44, 58, 33, 38, 37, 72, 36,
      94},
     7144318507085973802ULL, 14955, 3247308},
    {PolicyKind::kFifo, 2024u,
     {5, 75, 6, 15, 74, 23, 37, 24, 53, 4, 69, 89, 84, 35, 18, 62, 77, 38, 29, 40, 46, 0, 48,
      49},
     12805920840977980812ULL, 14858, 2005830},
    {PolicyKind::kClock, 2024u,
     {5, 75, 6, 15, 74, 23, 37, 24, 53, 4, 69, 89, 84, 35, 18, 62, 77, 38, 29, 40, 46, 0, 48,
      49},
     12795778571483366709ULL, 14859, 21818213},
    {PolicyKind::kMixed, 2024u,
     {23, 89, 38, 49, 75, 6, 15, 74, 37, 24, 53, 4, 35, 18, 62, 77, 29, 40, 46, 0, 48, 5, 56,
      92},
     2093179982937903028ULL, 14818, 3224309},
};

TEST(GoldenReplacement, VictimSequencesMatchRecorded) {
  for (const auto& golden : kPolicyGoldens) {
    SCOPED_TRACE(std::string(PolicyKindName(golden.kind)) + "/seed=" +
                 std::to_string(golden.seed));
    CheckPolicyGolden(golden);
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level goldens: AccessPattern -> HostPager on a canned stream.
// ---------------------------------------------------------------------------

struct StatsGolden {
  PolicyKind kind;
  std::uint64_t faults;
  std::uint64_t major_faults;
  std::uint64_t evictions;
  std::uint64_t writebacks;
  Cycles policy_cycles;
  Duration total_cost;
};

workloads::AccessPattern CannedPattern() {
  workloads::PatternParams params;
  params.tiers = {{0.25, 0.45, false}, {0.7, 0.25, true}};
  params.zipf_weight = 0.2;
  params.zipf_theta = 0.85;
  params.write_ratio = 0.3;
  return workloads::AccessPattern(/*footprint_pages=*/2048, params, /*seed=*/7);
}

constexpr std::uint64_t kStatsAccesses = 200'000;

PagerStats RunCannedStream(PolicyKind kind) {
  DeviceBackend backend("golden-dev", DeviceLatency{10 * kMicrosecond, 8 * kMicrosecond});
  PagingParams params;
  HostPager pager(2048, /*local_frames=*/512, MakePolicy(kind, params, 5), &backend, params);
  workloads::AccessPattern pattern = CannedPattern();
  for (std::uint64_t i = 0; i < kStatsAccesses; ++i) {
    const workloads::PageAccess access = pattern.Next();
    EXPECT_TRUE(pager.Access(access.page, access.is_write).ok());
  }
  return pager.stats();
}

void CheckStatsGolden(const StatsGolden& golden, const PagerStats& got) {
  if (PrintMode()) {
    std::printf("{PolicyKind::k%s, %lluu, %lluu, %lluu, %lluu, %lld, %lld},\n",
                std::string(PolicyKindName(golden.kind)).c_str(),
                static_cast<unsigned long long>(got.faults),
                static_cast<unsigned long long>(got.major_faults),
                static_cast<unsigned long long>(got.evictions),
                static_cast<unsigned long long>(got.writebacks),
                static_cast<long long>(got.policy_cycles),
                static_cast<long long>(got.total_cost));
    return;
  }
  EXPECT_EQ(got.accesses, kStatsAccesses);
  EXPECT_EQ(got.faults, golden.faults);
  EXPECT_EQ(got.major_faults, golden.major_faults);
  EXPECT_EQ(got.evictions, golden.evictions);
  EXPECT_EQ(got.writebacks, golden.writebacks);
  EXPECT_EQ(got.policy_cycles, golden.policy_cycles);
  EXPECT_EQ(got.total_cost, golden.total_cost);
}

// Recorded from the pre-intrusive-list implementation; see file comment.
const StatsGolden kStatsGoldens[] = {
    {PolicyKind::kFifo, 144926u, 142878u, 144414u, 51832u, 19495890, 2358190430},
    {PolicyKind::kClock, 144206u, 142158u, 143694u, 51557u, 1876218030, 2965269811},
    {PolicyKind::kMixed, 141861u, 139813u, 141349u, 50665u, 27555171, 2310695709},
};

TEST(GoldenReplacement, PagerStatsMatchRecorded) {
  for (const auto& golden : kStatsGoldens) {
    SCOPED_TRACE(std::string(PolicyKindName(golden.kind)));
    CheckStatsGolden(golden, RunCannedStream(golden.kind));
  }
}

// ---------------------------------------------------------------------------
// Explicit SD goldens: WorkloadRunner::RunExplicitSd on a canned profile,
// over a fixed-latency device (the devirtualised charge) and over a remote
// extent on a zombie (the virtual StorePage/LoadPage charge).  Recorded from
// the tree that still had a separate guest-pager state machine.
// ---------------------------------------------------------------------------

struct ExplicitSdGolden {
  const char* backend;
  std::uint64_t faults;
  std::uint64_t major_faults;
  std::uint64_t evictions;
  std::uint64_t writebacks;
  Cycles policy_cycles;
  Duration total_cost;
  Duration sim_time;
};

workloads::AppProfile CannedEsdProfile() {
  workloads::AppProfile profile;
  profile.reserved_memory = 10 * kMiB;  // 2560 pages; visible RAM 1280
  profile.working_set = 8 * kMiB;       // 2048-page footprint
  profile.pattern.tiers = {{0.25, 0.45, false}, {0.7, 0.25, true}};
  profile.pattern.zipf_weight = 0.2;
  profile.pattern.zipf_theta = 0.85;
  profile.pattern.write_ratio = 0.3;
  profile.compute_per_access = 40;
  profile.accesses = 200'000;
  return profile;
}

void CheckExplicitSdGolden(const ExplicitSdGolden& golden, const workloads::RunResult& got) {
  if (PrintMode()) {
    std::printf("{\"%s\", %lluu, %lluu, %lluu, %lluu, %lld, %lld, %lld},\n", golden.backend,
                static_cast<unsigned long long>(got.pager.faults),
                static_cast<unsigned long long>(got.pager.major_faults),
                static_cast<unsigned long long>(got.pager.evictions),
                static_cast<unsigned long long>(got.pager.writebacks),
                static_cast<long long>(got.pager.policy_cycles),
                static_cast<long long>(got.pager.total_cost),
                static_cast<long long>(got.sim_time));
    return;
  }
  EXPECT_EQ(got.pager.accesses, 200'000u);
  EXPECT_EQ(got.pager.faults, golden.faults);
  EXPECT_EQ(got.pager.major_faults, golden.major_faults);
  EXPECT_EQ(got.pager.evictions, golden.evictions);
  EXPECT_EQ(got.pager.writebacks, golden.writebacks);
  EXPECT_EQ(got.pager.policy_cycles, golden.policy_cycles);
  EXPECT_EQ(got.pager.total_cost, golden.total_cost);
  EXPECT_EQ(got.sim_time, golden.sim_time);
}

// Recorded from the separate guest-pager implementation; see above.
const ExplicitSdGolden kExplicitSdGoldens[] = {
    {"device", 59755u, 57707u, 58680u, 77556u, 171298228, 2428628890, 2436628890},
    {"remote", 59755u, 57707u, 58680u, 77556u, 171298228, 1402894900, 1410894900},
};

TEST(GoldenReplacement, ExplicitSdStatsMatchRecorded) {
  const workloads::AppProfile profile = CannedEsdProfile();
  workloads::WorkloadRunner runner;

  DeviceBackend device("golden-dev", DeviceLatency{10 * kMicrosecond, 8 * kMicrosecond});
  {
    SCOPED_TRACE("device");
    const workloads::RunResult got = runner.RunExplicitSd(profile, 0.5, &device);
    EXPECT_EQ(got.config, "explicit-sd:golden-dev");
    CheckExplicitSdGolden(kExplicitSdGoldens[0], got);
  }

  cloud::RackConfig config;
  config.buff_size = 4 * kMiB;
  config.materialize_memory = false;
  cloud::Rack rack(config);
  const auto machine = acpi::MachineProfile::HpCompaqElite8300();
  cloud::Server& user = rack.AddServer("user", machine, {8, 16 * kGiB});
  cloud::Server& host = rack.AddServer("host", machine, {8, 16 * kGiB});
  ASSERT_TRUE(rack.PushToZombie(host.id()).ok());
  auto extent = rack.manager(user.id()).AllocExtension(profile.reserved_memory);
  ASSERT_TRUE(extent.ok());
  RemoteBackend remote(extent.value());
  {
    SCOPED_TRACE("remote");
    const workloads::RunResult got = runner.RunExplicitSd(profile, 0.5, &remote);
    EXPECT_EQ(got.config, "explicit-sd:remote-ram");
    CheckExplicitSdGolden(kExplicitSdGoldens[1], got);
  }
  EXPECT_GT(extent.value()->remote_writes(), 0u);
  EXPECT_GT(extent.value()->remote_reads(), 0u);
}

}  // namespace
}  // namespace zombie::hv
