// Unit tests for the workload models: access patterns, application profiles,
// and the workload runner's penalty measurements.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/hv/backend.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie::workloads {
namespace {

TEST(AccessPattern, DeterministicForSameSeed) {
  PatternParams params;
  params.tiers = {{0.5, 0.3}};
  params.zipf_weight = 0.5;
  AccessPattern a(1000, params, 7);
  AccessPattern b(1000, params, 7);
  for (int i = 0; i < 500; ++i) {
    const auto x = a.Next();
    const auto y = b.Next();
    EXPECT_EQ(x.page, y.page);
    EXPECT_EQ(x.is_write, y.is_write);
  }
}

TEST(AccessPattern, PagesStayInFootprint) {
  PatternParams params;
  params.tiers = {{0.3, 0.4}};
  params.zipf_weight = 0.4;
  AccessPattern pattern(257, params, 3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(pattern.Next().page, 257u);
  }
}

TEST(AccessPattern, ScanTierIsCyclic) {
  PatternParams params;
  params.tiers = {{0.01, 1.0}};  // pure scan over 1% of the footprint
  AccessPattern pattern(1000, params, 5);
  const std::uint64_t scan_pages = 10;  // 1% of 1000
  for (std::uint64_t i = 0; i < 3 * scan_pages; ++i) {
    EXPECT_EQ(pattern.Next().page, i % scan_pages);
  }
}

TEST(AccessPattern, NestedTiersKeepIndependentCursors) {
  PatternParams params;
  params.tiers = {{0.01, 0.5}, {0.02, 0.5}};
  AccessPattern pattern(1000, params, 5);
  // Each tier sweeps its own region; pages never leave the widest region.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(pattern.Next().page, 20u);
  }
}

TEST(AccessPattern, WriteRatioRespected) {
  PatternParams params;
  params.write_ratio = 0.25;
  AccessPattern pattern(100, params, 11);
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    writes += pattern.Next().is_write ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(AccessPattern, ZipfSkewsTowardHotSet) {
  PatternParams params;
  params.zipf_weight = 1.0;
  params.zipf_theta = 0.95;
  AccessPattern pattern(10000, params, 13);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    ++counts[pattern.Next().page];
  }
  // A strongly skewed stream touches far fewer distinct pages than uniform.
  EXPECT_LT(counts.size(), 6000u);
}

// The zipf draw has two implementations: the precomputed rank-threshold
// table (small footprints) and the direct pow expression (large footprints).
// Replaying the generator's exact draw sequence against the pow formula
// checks that the table inversion is bit-identical, write flags included.
TEST(AccessPattern, ZipfTablePathMatchesPowPath) {
  constexpr std::uint64_t kFootprint = 4096;  // table path engaged
  for (double theta : {0.5, 0.85, 0.9, 0.99}) {
    PatternParams params;
    params.zipf_weight = 1.0;
    params.zipf_theta = theta;
    params.write_ratio = 0.3;
    AccessPattern pattern(kFootprint, params, 11);
    Rng reference(11);  // replays the generator's draw order by hand
    const double exponent = 1.0 / (1.0 - theta);
    for (int i = 0; i < 200'000; ++i) {
      const PageAccess got = pattern.Next();
      const bool want_write = reference.NextBool(0.3);
      const double selector = reference.NextDouble();
      ASSERT_LT(selector, 1.0);  // zipf_weight == 1: always the zipf branch
      const double z = reference.NextDouble();
      auto rank = static_cast<std::uint64_t>(static_cast<double>(kFootprint) *
                                             std::pow(z, exponent));
      if (rank >= kFootprint) {
        rank = kFootprint - 1;
      }
      ASSERT_EQ(got.page, (rank * 2654435761ULL) % kFootprint) << "theta=" << theta;
      ASSERT_EQ(got.is_write, want_write);
    }
  }
}

TEST(AppModels, AllProfilesNamedAndSane) {
  for (App app : AllApps()) {
    const AppProfile p = ProfileFor(app);
    EXPECT_EQ(p.app, app);
    EXPECT_FALSE(AppName(app).empty());
    EXPECT_GT(p.footprint_pages(), 0u);
    EXPECT_LE(p.working_set, p.reserved_memory);
    double total_weight = p.pattern.zipf_weight;
    for (const auto& tier : p.pattern.tiers) {
      EXPECT_GT(tier.fraction, 0.0);
      EXPECT_LE(tier.fraction, 1.0);
      total_weight += tier.weight;
    }
    EXPECT_LE(total_weight, 1.0 + 1e-9);
    EXPECT_GT(p.accesses, 100'000u);
  }
}

TEST(Runner, LocalOnlyBaselineHasOnlyFirstTouchFaults) {
  AppProfile profile = DataCachingProfile();
  profile.accesses = 100'000;
  WorkloadRunner runner;
  const RunResult base = runner.RunLocalOnly(profile);
  EXPECT_EQ(base.pager.major_faults, 0u);
  EXPECT_LE(base.pager.faults, profile.footprint_pages());
  EXPECT_GT(base.sim_time, 0);
}

TEST(Runner, RamExtPenaltyDecreasesWithLocalMemory) {
  AppProfile profile = ElasticsearchProfile();
  profile.reserved_memory = 16 * kMiB;
  profile.working_set = 14 * kMiB;
  profile.accesses = 200'000;
  WorkloadRunner runner;
  hv::DeviceBackend remote("remote-ram", {3 * kMicrosecond, 3 * kMicrosecond});
  const RunResult base = runner.RunLocalOnly(profile);
  const double p20 = PenaltyPercent(runner.RunRamExt(profile, 0.2, &remote), base);
  const double p50 = PenaltyPercent(runner.RunRamExt(profile, 0.5, &remote), base);
  const double p80 = PenaltyPercent(runner.RunRamExt(profile, 0.8, &remote), base);
  EXPECT_GT(p20, p50);
  EXPECT_GT(p50, p80);
  EXPECT_GE(p80, 0.0);
}

TEST(Runner, ExplicitSdSlowerThanRamExt) {
  AppProfile profile = ElasticsearchProfile();
  profile.reserved_memory = 16 * kMiB;
  profile.working_set = 14 * kMiB;
  profile.accesses = 200'000;
  WorkloadRunner runner;
  hv::DeviceBackend remote("remote-ram", {3 * kMicrosecond, 3 * kMicrosecond});
  const RunResult base = runner.RunLocalOnly(profile);
  const double re = PenaltyPercent(runner.RunRamExt(profile, 0.5, &remote), base);
  const double esd = PenaltyPercent(runner.RunExplicitSd(profile, 0.5, &remote), base);
  EXPECT_GT(esd, re);
}

TEST(Runner, ExplicitSdReserveShrinksUsableFrames) {
  // 1 MiB reserved at 50% local: the guest sees 128 frames and keeps 16% of
  // them (kernel, page-cache floor), leaving floor(128 * 0.84) = 107 for the
  // working set.  Once the frames fill, every fault evicts a page, so
  // faults - evictions counts the frames the guest pager had.
  AppProfile profile = MicroProfile();
  profile.reserved_memory = 1 * kMiB;
  profile.working_set = 1 * kMiB;
  profile.pattern = PatternParams{};
  profile.pattern.tiers = {{1.0, 1.0}};  // cyclic scan over all 256 pages
  profile.accesses = 2'000;
  WorkloadRunner runner;
  hv::DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  const RunResult run = runner.RunExplicitSd(profile, 0.5, &dev);
  EXPECT_GT(run.pager.evictions, 0u);
  EXPECT_EQ(run.pager.faults - run.pager.evictions, 107u);
  const RunResult ram_ext = runner.RunRamExt(profile, 0.5, &dev);
  EXPECT_EQ(ram_ext.pager.faults - ram_ext.pager.evictions, 128u);
}

TEST(Runner, SlowerSwapDeviceMeansBiggerPenalty) {
  AppProfile profile = SparkSqlProfile();
  profile.reserved_memory = 16 * kMiB;
  profile.working_set = 14 * kMiB;
  profile.accesses = 150'000;
  WorkloadRunner runner;
  hv::DeviceBackend remote("remote-ram", {3 * kMicrosecond, 3 * kMicrosecond});
  auto ssd = hv::MakeLocalSsdBackend();
  auto hdd = hv::MakeLocalHddBackend();
  const RunResult base = runner.RunLocalOnly(profile);
  const double p_remote = PenaltyPercent(runner.RunExplicitSd(profile, 0.5, &remote), base);
  const double p_ssd = PenaltyPercent(runner.RunExplicitSd(profile, 0.5, ssd.get()), base);
  const double p_hdd = PenaltyPercent(runner.RunExplicitSd(profile, 0.5, hdd.get()), base);
  EXPECT_LT(p_remote, p_ssd);
  EXPECT_LT(p_ssd, p_hdd);
}

TEST(Runner, DeterministicAcrossRuns) {
  AppProfile profile = MicroProfile();
  profile.reserved_memory = 8 * kMiB;
  profile.working_set = 7 * kMiB;
  profile.accesses = 100'000;
  WorkloadRunner runner;
  hv::DeviceBackend remote("remote-ram", {3 * kMicrosecond, 3 * kMicrosecond});
  const auto a = runner.RunRamExt(profile, 0.5, &remote);
  const auto b = runner.RunRamExt(profile, 0.5, &remote);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.pager.faults, b.pager.faults);
}

}  // namespace
}  // namespace zombie::workloads
