// Unit tests for the hypervisor layer: page table, FIFO/Clock/Mixed
// replacement policies, the host pager (RAM Ext path), backends, and the
// host pager as the guest kernel runs it (Explicit SD path).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/hv/backend.h"
#include "src/hv/page_table.h"
#include "src/hv/pager.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"

namespace zombie::hv {
namespace {

// ---------------------------------------------------------------------------
// Page table.
// ---------------------------------------------------------------------------

TEST(GuestPageTable, ClearAccessedBits) {
  GuestPageTable table(8);
  table.SetAccessed(2);
  table.SetAccessed(5);
  table.ClearAccessedBits();
  for (PageIndex p = 0; p < table.size(); ++p) {
    EXPECT_FALSE(table.Accessed(p));
  }
}

TEST(GuestPageTable, CountPresent) {
  GuestPageTable table(8);
  table.at(1).present = true;
  table.at(3).present = true;
  EXPECT_EQ(table.CountPresent(), 2u);
}

// ---------------------------------------------------------------------------
// Replacement policies.
// ---------------------------------------------------------------------------

TEST(Policies, FifoEvictsOldestFault) {
  PagingParams params;
  FifoPolicy fifo(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    fifo.OnPageIn(p);
  }
  // Even if the oldest page was just accessed, FIFO takes it.
  table.SetAccessed(3);
  const auto victim = fifo.PickVictim(table);
  EXPECT_EQ(victim.page, 3u);
  EXPECT_EQ(fifo.tracked(), 2u);
}

TEST(Policies, ClockSkipsAccessedPages) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    clock.OnPageIn(p);
  }
  table.SetAccessed(3);  // the head is protected by its A-bit
  const auto victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 1u);
  // The scan only *checks* bits; clearing is the periodic scan's job
  // ("The 'accessed' bit of all pages is periodically cleared").
  EXPECT_TRUE(table.Accessed(3));
}

TEST(Policies, ClockWrapsWhenAllAccessed) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    table.SetAccessed(p);
    clock.OnPageIn(p);
  }
  const auto victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 3u);  // full scan, then the head falls
}

TEST(Policies, ClockCostGrowsWithScanLength) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table.at(p).present = true;
    table.SetAccessed(p);  // force a long scan
    clock.OnPageIn(p);
  }
  const auto long_scan = clock.PickVictim(table);

  ClockPolicy clock2(params);
  GuestPageTable table2(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table2.at(p).present = true;  // A-bits clear: first node wins
    clock2.OnPageIn(p);
  }
  const auto short_scan = clock2.PickVictim(table2);
  EXPECT_GT(long_scan.cycles, 10 * short_scan.cycles);
}

TEST(Policies, MixedBoundsScanDepth) {
  PagingParams params;
  MixedPolicy mixed(params, /*depth=*/5);
  GuestPageTable table(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table.at(p).present = true;
    table.SetAccessed(p);
    mixed.OnPageIn(p);
  }
  const auto victim = mixed.PickVictim(table);
  // Scanned only 5 entries then fell back to FIFO: bounded cost.
  const Cycles bound = params.policy_fixed_cycles +
                       5 * (params.list_node_cycles + params.accessed_check_cycles) +
                       params.fifo_pop_cycles;
  EXPECT_LE(victim.cycles, bound);
  // The FIFO fallback takes the element right after the scanned prefix.
  EXPECT_EQ(victim.page, 5u);
}

TEST(Policies, MixedPicksUnaccessedWithinDepth) {
  PagingParams params;
  MixedPolicy mixed(params, 5);
  GuestPageTable table(10);
  for (PageIndex p : {0u, 1u, 2u}) {
    table.at(p).present = true;
    table.SetAccessed(p);
    mixed.OnPageIn(p);
  }
  table.ClearAccessed(1);
  const auto victim = mixed.PickVictim(table);
  EXPECT_EQ(victim.page, 1u);
}

TEST(Policies, OnPageGoneRemovesFromList) {
  PagingParams params;
  FifoPolicy fifo(params);
  GuestPageTable table(10);
  for (PageIndex p : {0u, 1u, 2u}) {
    table.at(p).present = true;
    fifo.OnPageIn(p);
  }
  fifo.OnPageGone(0);
  EXPECT_EQ(fifo.tracked(), 2u);
  EXPECT_EQ(fifo.PickVictim(table).page, 1u);
}

TEST(Policies, FactoryProducesAllKinds) {
  PagingParams params;
  EXPECT_EQ(MakePolicy(PolicyKind::kFifo, params)->kind(), PolicyKind::kFifo);
  EXPECT_EQ(MakePolicy(PolicyKind::kClock, params)->kind(), PolicyKind::kClock);
  EXPECT_EQ(MakePolicy(PolicyKind::kMixed, params)->kind(), PolicyKind::kMixed);
  EXPECT_EQ(PolicyKindName(PolicyKind::kMixed), "Mixed");
}

// ---------------------------------------------------------------------------
// HostPager (RAM Ext fault handler).
// ---------------------------------------------------------------------------

class PagerTest : public ::testing::Test {
 protected:
  PagerTest() : backend_("test-dev", DeviceLatency{10 * kMicrosecond, 8 * kMicrosecond}) {}

  std::unique_ptr<HostPager> MakePager(std::uint64_t pages, std::uint64_t frames,
                                       PolicyKind kind = PolicyKind::kMixed) {
    PagingParams params;
    return std::make_unique<HostPager>(pages, frames, MakePolicy(kind, params), &backend_,
                                       params);
  }

  DeviceBackend backend_;
};

TEST_F(PagerTest, FirstTouchIsMinorFault) {
  auto pager = MakePager(10, 10);
  auto cost = pager->Access(0, false);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(pager->stats().faults, 1u);
  EXPECT_EQ(pager->stats().major_faults, 0u);  // zero-fill, no backend read
  // Second access: resident, cheap.
  auto hit = pager->Access(0, false);
  ASSERT_TRUE(hit.ok());
  EXPECT_LT(hit.value(), cost.value());
  EXPECT_EQ(pager->stats().faults, 1u);
}

TEST_F(PagerTest, EvictionKicksInWhenFramesExhausted) {
  auto pager = MakePager(4, 2);
  ASSERT_TRUE(pager->Access(0, true).ok());
  ASSERT_TRUE(pager->Access(1, true).ok());
  EXPECT_EQ(pager->free_frames(), 0u);
  ASSERT_TRUE(pager->Access(2, true).ok());  // forces an eviction
  EXPECT_EQ(pager->stats().evictions, 1u);
  EXPECT_EQ(pager->table().CountPresent(), 2u);
}

TEST_F(PagerTest, DirtyEvictionWritesBackCleanDoesNot) {
  auto pager = MakePager(4, 1);
  ASSERT_TRUE(pager->Access(0, true).ok());   // dirty
  ASSERT_TRUE(pager->Access(1, false).ok());  // evicts 0 -> writeback
  EXPECT_EQ(pager->stats().writebacks, 1u);
  ASSERT_TRUE(pager->Access(2, false).ok());  // evicts 1 (clean) -> no writeback
  EXPECT_EQ(pager->stats().writebacks, 1u);
}

TEST_F(PagerTest, SwappedPageReloadsAsMajorFault) {
  auto pager = MakePager(4, 1);
  ASSERT_TRUE(pager->Access(0, true).ok());
  ASSERT_TRUE(pager->Access(1, false).ok());  // 0 swapped out
  EXPECT_TRUE(pager->table().at(0).swapped);
  auto cost = pager->Access(0, false);  // reload
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(pager->stats().major_faults, 1u);
  // Reload pays the backend read latency.
  EXPECT_GE(cost.value(), 10 * kMicrosecond);
}

TEST_F(PagerTest, OutOfRangeRejected) {
  auto pager = MakePager(4, 2);
  EXPECT_FALSE(pager->Access(4, false).ok());
}

TEST_F(PagerTest, HotPagesStayResidentUnderMixed) {
  // A hot page accessed between faults should survive eviction pressure.
  auto pager = MakePager(64, 8, PolicyKind::kMixed);
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(pager->Access(0, false).ok());  // the hot page
    ASSERT_TRUE(pager->Access(8 + (round % 32), false).ok());
  }
  // Page 0 never got evicted: exactly one fault for it.
  std::uint64_t major = pager->stats().major_faults;
  ASSERT_TRUE(pager->Access(0, false).ok());
  EXPECT_EQ(pager->stats().major_faults, major);  // still resident
}

TEST_F(PagerTest, StatsAccumulateCost) {
  auto pager = MakePager(8, 8);
  Duration sum = 0;
  for (PageIndex p = 0; p < 8; ++p) {
    auto cost = pager->Access(p, false);
    ASSERT_TRUE(cost.ok());
    sum += cost.value();
  }
  EXPECT_EQ(pager->stats().total_cost, sum);
  EXPECT_EQ(pager->stats().accesses, 8u);
}

// ---------------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------------

TEST(Backends, DeviceLatenciesOrdered) {
  auto ssd = MakeLocalSsdBackend();
  auto hdd = MakeLocalHddBackend();
  EXPECT_LT(ssd->LoadPage(0).value(), hdd->LoadPage(0).value());
  EXPECT_LT(ssd->StorePage(0).value(), hdd->StorePage(0).value());
  EXPECT_EQ(ssd->name(), "local-ssd");
  EXPECT_EQ(hdd->capacity_pages(), PageBackend::kNoLimit);
}

// ---------------------------------------------------------------------------
// Explicit SD: HostPager under the guest kernel's Clock, with amplified
// writebacks, over a SplitDriverBackend.  (The guest RAM reserve is the
// runner's; see Runner.ExplicitSdReserveShrinksUsableFrames.)
// ---------------------------------------------------------------------------

// A device whose `fail_at`-th StorePage (1-based) fails; 0 never fails.
class FlakyStoreBackend final : public PageBackend {
 public:
  explicit FlakyStoreBackend(int fail_at) : fail_at_(fail_at) {}

  [[nodiscard]] Result<Duration> StorePage(PageIndex) override {
    if (++stores_ == fail_at_) {
      return Status(ErrorCode::kUnavailable, "store failed");
    }
    return 8 * kMicrosecond;
  }
  [[nodiscard]] Result<Duration> LoadPage(PageIndex) override { return 10 * kMicrosecond; }
  std::string name() const override { return "flaky"; }
  std::uint64_t capacity_pages() const override { return kNoLimit; }

 private:
  int fail_at_;
  int stores_ = 0;
};

std::unique_ptr<HostPager> MakeEsdPager(std::uint64_t pages, std::uint64_t frames,
                                        PageBackend* device, double amplification) {
  return std::make_unique<HostPager>(pages, frames, MakePolicy(PolicyKind::kClock, {}), device,
                                     PagingParams{}, amplification);
}

TEST(ExplicitSdTest, AmplificationProducesExtraWritebacks) {
  DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  auto run = [&](double amplification) {
    auto pager = MakeEsdPager(32, 4, &dev, amplification);
    for (int round = 0; round < 10; ++round) {
      for (PageIndex p = 0; p < 32; ++p) {
        EXPECT_TRUE(pager->Access(p, true).ok());
      }
    }
    return pager->stats().writebacks;
  };
  const auto amplified_wb = run(3.0);
  const auto plain_wb = run(1.0);
  EXPECT_GT(amplified_wb, 2 * plain_wb);
}

TEST(ExplicitSdTest, FailedStoreKeepsItsDebt) {
  // 2.2 stores per dirty eviction: the first eviction pays one store and
  // fails the second, so its access fails and the victim stays resident and
  // dirty.  The unpaid 1.2 carries over: the next dirty eviction pays
  // 1.2 + 2.2 -> three stores, four writebacks in all.  The victim stays
  // evictable, so a one-frame pager can retry.  Without amplification a
  // failed store likewise keeps the victim evictable.
  struct Case {
    std::uint64_t frames;
    double amplification;
    int fail_at;
    std::uint64_t writebacks_after_failure;
    std::uint64_t writebacks_after_retry;
  };
  for (const Case& c : {Case{2, 2.2, 2, 1, 4}, Case{1, 2.2, 2, 1, 4}, Case{1, 1.0, 1, 0, 1}}) {
    SCOPED_TRACE(std::to_string(c.frames) + " frame(s), amplification " +
                 std::to_string(c.amplification));
    FlakyStoreBackend dev(c.fail_at);
    auto pager = MakeEsdPager(4, c.frames, &dev, c.amplification);
    for (PageIndex p = 0; p < c.frames; ++p) {
      ASSERT_TRUE(pager->Access(p, true).ok());
    }
    const PageIndex next = c.frames;
    EXPECT_FALSE(pager->Access(next, false).ok());
    EXPECT_EQ(pager->stats().writebacks, c.writebacks_after_failure);
    EXPECT_EQ(pager->stats().evictions, 0u);
    for (PageIndex p = 0; p < c.frames; ++p) {
      EXPECT_TRUE(pager->table().at(p).present && pager->table().at(p).dirty);
    }
    ASSERT_TRUE(pager->Access(next, false).ok());
    EXPECT_EQ(pager->stats().writebacks, c.writebacks_after_retry);
    EXPECT_EQ(pager->stats().evictions, 1u);
  }
}

TEST(ExplicitSdTest, SplitDriverOverheadCharged) {
  // Same device, with and without the virtio crossing: the ESD access that
  // faults must cost at least the split-driver overhead more.
  DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  SplitDriverBackend split(&dev);
  auto pager = MakeEsdPager(4, 1, &split, 1.0);
  ASSERT_TRUE(pager->Access(0, true).ok());
  ASSERT_TRUE(pager->Access(1, false).ok());
  auto reload = pager->Access(0, false);  // major fault through virtio
  ASSERT_TRUE(reload.ok());
  EXPECT_GE(reload.value(), 10 * kMicrosecond + kSplitDriverOverhead);

  // A fixed-latency device stays fixed-latency, overhead included; a device
  // that is not fixed pays the overhead per call instead.
  ASSERT_NE(split.fixed_latency(), nullptr);
  EXPECT_EQ(split.fixed_latency()->read, 10 * kMicrosecond + kSplitDriverOverhead);
  EXPECT_EQ(split.fixed_latency()->write, 8 * kMicrosecond + kSplitDriverOverhead);
  EXPECT_EQ(split.name(), "dev");
  FlakyStoreBackend flaky(/*fail_at=*/2);
  SplitDriverBackend split_flaky(&flaky);
  EXPECT_EQ(split_flaky.fixed_latency(), nullptr);
  EXPECT_EQ(split_flaky.LoadPage(0).value(), 10 * kMicrosecond + kSplitDriverOverhead);
  EXPECT_EQ(split_flaky.StorePage(0).value(), 8 * kMicrosecond + kSplitDriverOverhead);
  EXPECT_FALSE(split_flaky.StorePage(0).ok());  // errors pass through
}

TEST(ExplicitSdTest, OutOfRangeRejected) {
  DeviceBackend dev("dev", {});
  SplitDriverBackend split(&dev);
  auto pager = MakeEsdPager(4, 4, &split, 2.2);
  EXPECT_FALSE(pager->Access(99, false).ok());
}

}  // namespace
}  // namespace zombie::hv
