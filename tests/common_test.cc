// Unit tests for the common substrate: units, result, clock, event queue,
// rng, stats, table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/event_queue.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/units.h"

namespace zombie {
namespace {

// ---------------------------------------------------------------------------
// Units.
// ---------------------------------------------------------------------------

TEST(Units, TimeConversions) {
  EXPECT_EQ(kSecond, 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond + 500 * kMillisecond), 2.5);
  EXPECT_EQ(FromSeconds(1.5), kSecond + 500 * kMillisecond);
}

TEST(Units, PageArithmetic) {
  EXPECT_EQ(PagesOf(1 * kMiB), 256u);
  EXPECT_EQ(PagesToBytes(256), 1 * kMiB);
  EXPECT_EQ(PagesOf(kPageSize - 1), 0u);
}

TEST(Units, EnergyIntegration) {
  // 100 W for 10 s = 1000 J = 1,000,000 mJ.
  EXPECT_EQ(EnergyOf(WattsToMw(100.0), 10 * kSecond), 1'000'000);
  EXPECT_DOUBLE_EQ(MjToJoules(1'000'000), 1000.0);
}

TEST(Units, CycleConversionRoundTrips) {
  EXPECT_EQ(CyclesToDuration(kCyclesPerNs * 100), 100);
  EXPECT_EQ(DurationToCycles(100), 100 * kCyclesPerNs);
}

// ---------------------------------------------------------------------------
// Result / Status.
// ---------------------------------------------------------------------------

TEST(Result, OkCarriesValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.code(), ErrorCode::kOk);
}

TEST(Result, ErrorCarriesStatus) {
  Result<int> r(ErrorCode::kOutOfMemory, "pool dry");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(r.status().message(), "pool dry");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, StatusToString) {
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  EXPECT_EQ(Status(ErrorCode::kTimeout, "rpc").ToString(), "TIMEOUT: rpc");
}

TEST(Result, EveryErrorCodeHasAName) {
  for (auto code : {ErrorCode::kOk, ErrorCode::kOutOfMemory, ErrorCode::kNotFound,
                    ErrorCode::kInvalidArgument, ErrorCode::kUnavailable, ErrorCode::kConflict,
                    ErrorCode::kTimeout, ErrorCode::kFailedPrecondition}) {
    EXPECT_STRNE(ErrorCodeName(code), "UNKNOWN");
  }
}

// ZOMBIE_CHECK_OK is the sanctioned way to consume a Status/Result that is
// guaranteed-ok by construction (Status and Result<T> are [[nodiscard]] and
// the build runs -Werror=unused-result, so silently dropping one no longer
// compiles).  Passing statuses must be a no-op; a failing status must abort
// loudly, naming the expression and the status.
TEST(Result, CheckOkPassesThroughOkValues) {
  ZOMBIE_CHECK_OK(Status::Ok());
  ZOMBIE_CHECK_OK(Result<int>(42));
  SUCCEED();
}

TEST(Result, CheckOkAbortsOnError) {
  EXPECT_DEATH(ZOMBIE_CHECK_OK(Status(ErrorCode::kTimeout, "rpc stalled")),
               "ZOMBIE_CHECK_OK.*TIMEOUT: rpc stalled");
  EXPECT_DEATH(ZOMBIE_CHECK_OK(Result<int>(ErrorCode::kNotFound, "gone")),
               "ZOMBIE_CHECK_OK.*NOT_FOUND: gone");
}

// ---------------------------------------------------------------------------
// SimClock.
// ---------------------------------------------------------------------------

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(5 * kSecond);
  clock.AdvanceTo(6 * kSecond);
  EXPECT_EQ(clock.now(), 6 * kSecond);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0);
}

// ---------------------------------------------------------------------------
// EventQueue.
// ---------------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, TiesFollowInsertionNotTimestampOfInsertion) {
  EventQueue q;
  std::vector<int> order;
  // Interleave two timestamps: ties at each instant must replay the order
  // the events were scheduled in, independent of the other instant.
  q.ScheduleAt(20, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(4); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, TiesSurviveCancellationOfEarlierInsertions) {
  EventQueue q;
  std::vector<int> order;
  auto a = q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  q.Cancel(a);
  // Cancelling the first tied event must not reorder the survivors.
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventQueue, EventScheduledAtNowRunsAfterAlreadyQueuedTies) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] {
    order.push_back(1);
    // Scheduled mid-dispatch at the current instant: insertion order says it
    // runs after the events already queued for t=10, not before.
    q.ScheduleAt(10, [&] { order.push_back(3); });
  });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  auto id = q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double cancel
  q.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterRunRejected) {
  EventQueue q;
  auto id = q.ScheduleAt(10, [] {});
  q.Run();
  EXPECT_FALSE(q.Cancel(id));  // already executed: counts stay exact
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] {
    ++fired;
    q.ScheduleAfter(5, [&] { ++fired; });
  });
  q.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  q.Run();
  bool ran = false;
  q.ScheduleAt(10, [&] { ran = true; });  // in the past
  q.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, NextEventTimeOfEmptyQueueIsNever) {
  EventQueue q;
  EXPECT_EQ(q.NextEventTime(), EventQueue::kNever);
  q.ScheduleAt(10, [] {});
  EXPECT_EQ(q.NextEventTime(), 10);
  q.Run();
  EXPECT_EQ(q.NextEventTime(), EventQueue::kNever);
}

TEST(EventQueue, NextEventTimeDropsCancelledHead) {
  EventQueue q;
  int fired = 0;
  const auto head = q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(30, [&] { ++fired; });
  ASSERT_TRUE(q.Cancel(head));
  EXPECT_EQ(q.NextEventTime(), 30);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(head));  // dropping it does not revive it
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, AdvanceToKeepsTieRules) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(50, [&] { order.push_back(1); });
  // Outside work at t=50 runs first, then schedules at the instant: the new
  // event queues behind the one already due there.
  q.AdvanceTo(50);
  EXPECT_EQ(q.now(), 50);
  q.ScheduleAt(q.now(), [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });  // the past clamps to now
  q.AdvanceTo(20);  // backwards: the clock stays
  EXPECT_EQ(q.now(), 50);
  EXPECT_EQ(q.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 50);
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ZipfPrefersLowRanks) {
  Rng rng(4);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(1000, 0.9) < 100) {
      ++low;  // top 10% of ranks
    }
  }
  // With theta=0.9 the head should receive far more than 10% of draws.
  EXPECT_GT(low, n / 2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Percentiles, MedianAndTails) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) {
    p.Add(i);
  }
  EXPECT_NEAR(p.Median(), 50.5, 0.01);
  EXPECT_NEAR(p.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.Percentile(99), 99.01, 0.011);
}

TEST(Percentiles, EmptySampleSetIsDefinedZero) {
  Percentiles p;
  // The documented empty-set contract: 0.0 sentinel, never NaN, and the
  // Summary carries count == 0 so callers can tell "empty" from "all zero".
  EXPECT_EQ(p.Percentile(50), 0.0);
  EXPECT_EQ(p.Median(), 0.0);
  const PercentileSummary s = p.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.p999, 0.0);
}

TEST(Percentiles, LinearInterpolationBetweenClosestRanks) {
  Percentiles p;
  for (double x : {10.0, 20.0, 30.0, 40.0}) {
    p.Add(x);
  }
  // rank = p/100 * (n-1): p=50 on 4 samples lands at rank 1.5 -> 25.0.
  EXPECT_NEAR(p.Percentile(50), 25.0, 1e-9);
  EXPECT_NEAR(p.Percentile(25), 17.5, 1e-9);
  // Out-of-range p clamps to the extremes.
  EXPECT_NEAR(p.Percentile(-5), 10.0, 1e-9);
  EXPECT_NEAR(p.Percentile(200), 40.0, 1e-9);
}

TEST(Percentiles, SummaryMatchesIndividualQueries) {
  Percentiles p;
  for (int i = 0; i < 2000; ++i) {
    p.Add(static_cast<double>(i));
  }
  PercentileSummary s = p.Summary();
  EXPECT_EQ(s.count, 2000u);
  EXPECT_NEAR(s.p50, p.Percentile(50), 1e-9);
  EXPECT_NEAR(s.p99, p.Percentile(99), 1e-9);
  EXPECT_NEAR(s.p999, p.Percentile(99.9), 1e-9);
  EXPECT_LT(s.p50, s.p99);
  EXPECT_LT(s.p99, s.p999);
}

}  // namespace
}  // namespace zombie
