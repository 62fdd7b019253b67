#include "src/workloads/runner.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace zombie::workloads {

double PenaltyPercent(const RunResult& run, const RunResult& baseline) {
  if (baseline.sim_time <= 0) {
    return 0.0;
  }
  const double extra = static_cast<double>(run.sim_time - baseline.sim_time);
  return 100.0 * extra / static_cast<double>(baseline.sim_time);
}

namespace {

// Seed of every run's access stream.
constexpr std::uint64_t kSeed = 42;

// Explicit SD's guest-side costs (Section 4.5).  Applications and the guest
// kernel tune themselves to the smaller RAM they see at start time: a slice
// of it is unavailable to the working set (kernel, page-cache floor,
// allocator tuning), and kswapd's proactive flushes plus dirty-page
// clustering amplify the writebacks (v2 moved >122% more swap traffic than
// v1 on Elasticsearch).
constexpr double kGuestRamReserve = 0.16;
constexpr double kGuestWritebackAmplification = 2.2;

std::uint64_t LocalFrames(const AppProfile& profile, double local_fraction) {
  const auto frames = static_cast<std::uint64_t>(
      std::floor(local_fraction * static_cast<double>(PagesOf(profile.reserved_memory))));
  return std::max<std::uint64_t>(frames, 1);
}

// Generator batch size: large enough to amortise the generator/pager call
// overhead, small enough to stay L1-resident (1024 * 16 B = 16 KiB).
constexpr std::size_t kBatchSize = 1024;

// Replays the profile's access stream through `pager` in batches.  Summed
// integer costs, so the result is bit-identical to the former one-access-
// at-a-time loop.
Duration DriveBatched(hv::HostPager& pager, AccessPattern& pattern, const AppProfile& profile) {
  std::vector<PageAccess> buffer(kBatchSize);
  Duration total = 0;
  std::uint64_t remaining = profile.accesses;
  while (remaining > 0) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatchSize, remaining));
    const std::span<PageAccess> chunk(buffer.data(), n);
    pattern.FillBatch(chunk);
    total += pager.AccessBatch(chunk);
    total += static_cast<Duration>(n) * profile.compute_per_access;
    remaining -= n;
  }
  return total;
}

}  // namespace

RunResult WorkloadRunner::RunLocalOnly(const AppProfile& profile) {
  // Enough frames for the whole footprint: only first-touch faults occur.
  hv::DeviceBackend null_device("null", {});
  hv::HostPager pager(profile.footprint_pages(), profile.footprint_pages(),
                      hv::MakePolicy(options_.policy, {}, options_.mixed_depth), &null_device);
  AccessPattern pattern(profile.footprint_pages(), profile.pattern, kSeed);
  RunResult result;
  result.sim_time = DriveBatched(pager, pattern, profile);
  result.pager = pager.stats();
  result.config = "local-only";
  return result;
}

RunResult WorkloadRunner::RunRamExt(const AppProfile& profile, double local_fraction,
                                    hv::PageBackend* backend) {
  hv::HostPager pager(profile.footprint_pages(), LocalFrames(profile, local_fraction),
                      hv::MakePolicy(options_.policy, {}, options_.mixed_depth), backend);
  AccessPattern pattern(profile.footprint_pages(), profile.pattern, kSeed);
  RunResult result;
  result.sim_time = DriveBatched(pager, pattern, profile);
  result.pager = pager.stats();
  result.config = "ram-ext";
  return result;
}

RunResult WorkloadRunner::RunExplicitSd(const AppProfile& profile, double local_fraction,
                                        hv::PageBackend* device) {
  const std::uint64_t visible = LocalFrames(profile, local_fraction);
  const std::uint64_t usable = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::floor(static_cast<double>(visible) * (1.0 - kGuestRamReserve))));
  hv::SplitDriverBackend split_driver(device);
  hv::HostPager pager(profile.footprint_pages(), usable, hv::MakePolicy(hv::PolicyKind::kClock, {}),
                      &split_driver, {}, kGuestWritebackAmplification);
  AccessPattern pattern(profile.footprint_pages(), profile.pattern, kSeed);
  RunResult result;
  result.sim_time = DriveBatched(pager, pattern, profile);
  result.pager = pager.stats();
  result.config = "explicit-sd:" + device->name();
  return result;
}

}  // namespace zombie::workloads
