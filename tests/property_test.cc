// Property-based and parameterized sweeps over the core invariants:
//  * the pager never exceeds its frame budget and conserves pages;
//  * penalties are monotone in local memory and device speed;
//  * the buffer DB conserves buffers through random operation sequences,
//    and its batch calls match one-id-at-a-time application;
//  * the Sz energy estimate respects physical orderings for any plausible
//    machine;
//  * migration estimates dominate correctly across the parameter space;
//  * the consolidation planner's moves execute in order within capacity,
//    and it suspends exactly the awake hosts it leaves empty;
//  * the JSON reader returns a value or an error, never crashes, on mutants
//    of a rendered report and of bench/tolerances.json.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/acpi/energy_model.h"
#include "src/common/report.h"
#include "src/common/rng.h"
#include "src/hv/backend.h"
#include "src/hv/pager.h"
#include "src/hv/replacement.h"
#include "src/migration/migration.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/secondary_controller.h"
#include "src/scenario/diff.h"
#include "src/sim/consolidation.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace zombie {
namespace {

// ---------------------------------------------------------------------------
// Deterministic seeding.  Every Rng in this file derives from one base seed —
// a fixed constant, overridable with ZOMBIE_TEST_SEED=<n> — mixed with a
// per-site salt so distinct tests still explore distinct streams.  When a
// test fails, a ScopedSeedReporter prints the base seed so the failure can be
// reproduced exactly.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDefaultTestSeed = 20180423;  // EuroSys'18 week

std::uint64_t BaseSeed() {
  static const std::uint64_t base = [] {
    if (const char* env = std::getenv("ZOMBIE_TEST_SEED")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') {
        return static_cast<std::uint64_t>(parsed);
      }
      std::fprintf(stderr, "property_test: ignoring malformed ZOMBIE_TEST_SEED=\"%s\"\n",
                   env);
    }
    return kDefaultTestSeed;
  }();
  return base;
}

std::uint64_t TestSeed(std::uint64_t salt) {
  // splitmix64-style mix keeps nearby salts decorrelated.
  std::uint64_t z = BaseSeed() + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Prints the reproduction seed if the enclosing test fails after this object
// was constructed.
class ScopedSeedReporter {
 public:
  ScopedSeedReporter() : failed_on_entry_(::testing::Test::HasFailure()) {}
  ScopedSeedReporter(const ScopedSeedReporter&) = delete;
  ScopedSeedReporter& operator=(const ScopedSeedReporter&) = delete;
  ~ScopedSeedReporter() {
    if (!failed_on_entry_ && ::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "[  SEED    ] base seed %llu — rerun with ZOMBIE_TEST_SEED=%llu "
                   "to reproduce\n",
                   static_cast<unsigned long long>(BaseSeed()),
                   static_cast<unsigned long long>(BaseSeed()));
    }
  }

 private:
  bool failed_on_entry_;
};

// ---------------------------------------------------------------------------
// Pager invariants under random access streams, across policies and sizes.
// ---------------------------------------------------------------------------

class PagerPropertyTest
    : public ::testing::TestWithParam<std::tuple<hv::PolicyKind, std::uint64_t, std::uint64_t>> {
};

TEST_P(PagerPropertyTest, FrameBudgetAndConservation) {
  const auto [policy, pages, frames] = GetParam();
  hv::PagingParams params;
  hv::DeviceBackend backend("dev", {2000, 2000});
  hv::HostPager pager(pages, frames, hv::MakePolicy(policy, params), &backend, params);
  ScopedSeedReporter seed_reporter;
  Rng rng(TestSeed(pages * 31 + frames));

  for (int i = 0; i < 20000; ++i) {
    const auto page = rng.NextBelow(pages);
    auto cost = pager.Access(page, rng.NextBool(0.4));
    ASSERT_TRUE(cost.ok());
    ASSERT_GT(cost.value(), 0);
  }
  // Invariant 1: resident pages never exceed the frame budget.
  EXPECT_LE(pager.table().CountPresent(), frames);
  // Invariant 2: present + free == budget.
  EXPECT_EQ(pager.table().CountPresent() + pager.free_frames(), frames);
  // Invariant 3: every touched page is either resident or swapped, never both.
  for (hv::PageIndex p = 0; p < pages; ++p) {
    const auto& entry = pager.table().at(p);
    EXPECT_FALSE(entry.present && entry.swapped) << "page " << p;
    if (entry.swapped) {
      EXPECT_TRUE(entry.touched);
    }
  }
  // Invariant 4: the policy tracks exactly the resident pages.
  EXPECT_EQ(pager.policy().tracked(), pager.table().CountPresent());
  // Invariant 5: faults >= major faults; evictions consistent with faults.
  EXPECT_GE(pager.stats().faults, pager.stats().major_faults);
  EXPECT_GE(pager.stats().writebacks, 0u);
  EXPECT_LE(pager.stats().writebacks, pager.stats().evictions);
}

std::string PagerParamName(
    const ::testing::TestParamInfo<std::tuple<hv::PolicyKind, std::uint64_t, std::uint64_t>>&
        info) {
  return std::string(hv::PolicyKindName(std::get<0>(info.param))) + "_p" +
         std::to_string(std::get<1>(info.param)) + "_f" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBySize, PagerPropertyTest,
    ::testing::Combine(::testing::Values(hv::PolicyKind::kFifo, hv::PolicyKind::kClock,
                                         hv::PolicyKind::kMixed),
                       ::testing::Values(64, 257, 1024),   // guest pages
                       ::testing::Values(8, 63, 256)),     // frames
    PagerParamName);

// ---------------------------------------------------------------------------
// Penalty monotonicity sweeps (the Table-1 property, per app).
// ---------------------------------------------------------------------------

class PenaltyMonotonicityTest : public ::testing::TestWithParam<workloads::App> {};

TEST_P(PenaltyMonotonicityTest, PenaltyFallsAsLocalMemoryGrows) {
  workloads::AppProfile profile = workloads::ProfileFor(GetParam());
  profile.accesses = 300'000;  // trimmed for test runtime
  workloads::WorkloadRunner runner;
  hv::DeviceBackend remote("remote-ram", {2500, 2500});
  const auto baseline = runner.RunLocalOnly(profile);
  double previous = 1e18;
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const auto run = runner.RunRamExt(profile, fraction, &remote);
    const double penalty = workloads::PenaltyPercent(run, baseline);
    EXPECT_LE(penalty, previous * 1.10 + 1.0)
        << "penalty rose from " << previous << " to " << penalty << " at " << fraction;
    previous = penalty;
  }
}

std::string AppParamName(const ::testing::TestParamInfo<workloads::App>& info) {
  std::string name(workloads::AppName(info.param));
  for (char& c : name) {
    if (c == ' ' || c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, PenaltyMonotonicityTest,
                         ::testing::Values(workloads::App::kMicro,
                                           workloads::App::kElasticsearch,
                                           workloads::App::kDataCaching,
                                           workloads::App::kSparkSql),
                         AppParamName);

// Device-speed dominance: a strictly slower swap device never wins.
class DeviceOrderTest : public ::testing::TestWithParam<double> {};

TEST_P(DeviceOrderTest, SlowerDeviceNeverFaster) {
  const double fraction = GetParam();
  workloads::AppProfile profile = workloads::ElasticsearchProfile();
  profile.accesses = 200'000;
  workloads::WorkloadRunner runner;
  hv::DeviceBackend fast("fast", {3 * kMicrosecond, 3 * kMicrosecond});
  hv::DeviceBackend mid("mid", {90 * kMicrosecond, 70 * kMicrosecond});
  hv::DeviceBackend slow("slow", {6 * kMillisecond, 4 * kMillisecond});
  const auto t_fast = runner.RunExplicitSd(profile, fraction, &fast).sim_time;
  const auto t_mid = runner.RunExplicitSd(profile, fraction, &mid).sim_time;
  const auto t_slow = runner.RunExplicitSd(profile, fraction, &slow).sim_time;
  EXPECT_LE(t_fast, t_mid);
  EXPECT_LE(t_mid, t_slow);
}

INSTANTIATE_TEST_SUITE_P(LocalFractions, DeviceOrderTest,
                         ::testing::Values(0.2, 0.4, 0.5, 0.6, 0.8));

// ---------------------------------------------------------------------------
// Buffer DB conservation under random operation sequences.
// ---------------------------------------------------------------------------

TEST(BufferDbProperty, RandomOpsConserveBuffers) {
  ScopedSeedReporter seed_reporter;
  for (std::uint64_t salt = 1; salt <= 5; ++salt) {
    Rng rng(TestSeed(salt));
    remotemem::BufferDb db;
    std::map<remotemem::BufferId, bool> alive;  // id -> allocated
    remotemem::BufferId next_id = 1;

    for (int step = 0; step < 4000; ++step) {
      const auto op = rng.NextBelow(4);
      if (op == 0 || alive.empty()) {
        remotemem::BufferRecord rec;
        rec.id = next_id++;
        rec.size = 1 * kMiB;
        rec.host = static_cast<remotemem::ServerId>(1 + rng.NextBelow(8));
        ASSERT_TRUE(db.Insert(rec).ok());
        alive[rec.id] = false;
      } else {
        auto it = alive.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(alive.size())));
        const auto id = it->first;
        if (op == 1) {
          const Status st = db.Assign(id, 99);
          EXPECT_EQ(st.ok(), !it->second);
          it->second = true;
        } else if (op == 2) {
          EXPECT_TRUE(db.Release(id).ok());
          it->second = false;
        } else {
          EXPECT_TRUE(db.Erase(id).ok());
          alive.erase(it);
        }
      }
      // Conservation: model and DB agree on counts at every step.
      ASSERT_EQ(db.size(), alive.size());
      std::size_t model_free = 0;
      for (const auto& [id, allocated] : alive) {
        model_free += allocated ? 0 : 1;
      }
      ASSERT_EQ(db.free_count(), model_free);
    }
  }
}

// Richer randomized op sequences: typed inserts with gapped ids, assigns,
// releases, erases, host retypes and reloads, checked against a shadow
// model for id-sorted iteration order, byte-level free/used accounting,
// per-host and per-user views, the Section 4.3 reclaim order, and
// Snapshot/Load round trips (the failover-replica path must reproduce the
// DB exactly).  The maintained free totals, the per-type free index and
// the id lookup are checked against the model after every op.
TEST(BufferDbProperty, RandomOpsRoundTripAndStaySorted) {
  ScopedSeedReporter seed_reporter;
  for (std::uint64_t salt = 11; salt <= 14; ++salt) {
    Rng rng(TestSeed(salt));
    remotemem::BufferDb db;
    std::map<remotemem::BufferId, remotemem::BufferRecord> model;
    remotemem::BufferId next_id = 1;

    auto check = [&] {
      // Iteration order: strictly ascending ids, one record per model entry.
      ASSERT_EQ(db.records().size(), model.size());
      remotemem::BufferId previous = 0;
      Bytes free_bytes = 0;
      Bytes total_bytes = 0;
      for (const auto& rec : db.records()) {
        ASSERT_GT(rec.id, previous);
        previous = rec.id;
        auto it = model.find(rec.id);
        ASSERT_NE(it, model.end());
        EXPECT_EQ(rec.host, it->second.host);
        EXPECT_EQ(rec.user, it->second.user);
        EXPECT_EQ(rec.type, it->second.type);
        EXPECT_EQ(rec.size, it->second.size);
        total_bytes += rec.size;
        if (rec.user == remotemem::kNilServer) {
          free_bytes += rec.size;
        }
      }
      EXPECT_EQ(db.FreeBytes(), free_bytes);
      EXPECT_EQ(db.TotalBytes(), total_bytes);
      // Per-host / per-user views agree with the model.
      for (remotemem::ServerId host = 1; host <= 4; ++host) {
        std::size_t hosted = 0;
        std::size_t used = 0;
        for (const auto& [id, rec] : model) {
          hosted += rec.host == host ? 1 : 0;
          used += rec.user == host + 100 ? 1 : 0;
        }
        EXPECT_EQ(db.BuffersOfHost(host).size(), hosted);
        EXPECT_EQ(db.BuffersUsedBy(host + 100).size(), used);
        // Reclaim order: free buffers first, then used, ascending within
        // each group, covering every buffer of the host exactly once.
        const auto order = db.ReclaimOrderForHost(host);
        ASSERT_EQ(order.size(), hosted);
        bool seen_used = false;
        remotemem::BufferId last_free = 0;
        remotemem::BufferId last_used = 0;
        for (const auto& rec : order) {
          if (rec.user == remotemem::kNilServer) {
            EXPECT_FALSE(seen_used) << "free buffer after a used one";
            EXPECT_GT(rec.id, last_free);
            last_free = rec.id;
          } else {
            seen_used = true;
            EXPECT_GT(rec.id, last_used);
            last_used = rec.id;
          }
        }
      }
      // Snapshot -> Load round trip reproduces the DB byte for byte.
      remotemem::BufferDb replica;
      replica.Load(db.Snapshot());
      ASSERT_EQ(replica.records().size(), db.records().size());
      for (std::size_t i = 0; i < db.records().size(); ++i) {
        const auto& a = db.records()[i];
        const auto& b = replica.records()[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.offset, b.offset);
        EXPECT_EQ(a.size, b.size);
        EXPECT_EQ(a.host, b.host);
        EXPECT_EQ(a.user, b.user);
        EXPECT_EQ(a.type, b.type);
      }
      EXPECT_EQ(replica.free_count(), db.free_count());
      EXPECT_EQ(replica.FreeBytes(), db.FreeBytes());
    };

    // The indexes every mutator maintains, against the model.
    auto check_indexes = [&] {
      std::size_t free_count = 0;
      Bytes free_bytes = 0;
      std::map<remotemem::ServerId, std::vector<remotemem::BufferId>> zombie_free;
      std::map<remotemem::ServerId, std::vector<remotemem::BufferId>> active_free;
      for (const auto& [id, rec] : model) {
        auto found = db.Find(id);
        ASSERT_TRUE(found.has_value()) << "id " << id;
        EXPECT_EQ(found->id, id);
        EXPECT_EQ(found->user, rec.user);
        if (rec.user == remotemem::kNilServer) {
          ++free_count;
          free_bytes += rec.size;
          (rec.type == remotemem::BufferType::kZombie ? zombie_free : active_free)[rec.host]
              .push_back(id);
        }
      }
      EXPECT_EQ(db.free_count(), free_count);
      EXPECT_EQ(db.FreeBytes(), free_bytes);
      EXPECT_EQ(db.FreeByHost(remotemem::BufferType::kZombie), zombie_free);
      EXPECT_EQ(db.FreeByHost(remotemem::BufferType::kActive), active_free);
    };

    for (int step = 0; step < 2000; ++step) {
      const auto op = rng.NextBelow(6);
      if (op == 5) {
        // Reload from a shuffled snapshot: Load re-sorts and rebuilds.
        auto records = db.Snapshot();
        for (std::size_t i = records.size(); i > 1; --i) {
          std::swap(records[i - 1], records[rng.NextBelow(i)]);
        }
        db.Load(records);
      } else if (op == 0 || model.empty()) {
        remotemem::BufferRecord rec;
        rec.id = next_id;
        // Now and then fill a gap below the newest id: a middle insert
        // shifts the records after it.
        const remotemem::BufferId gap = 1 + rng.NextBelow(next_id);
        if (rng.NextBool(0.25) && gap < next_id && !model.contains(gap)) {
          rec.id = gap;
        } else {
          next_id += 1 + rng.NextBelow(3);  // gapped ids (sharded id streams)
        }
        rec.size = (1 + rng.NextBelow(4)) * kMiB;
        rec.host = static_cast<remotemem::ServerId>(1 + rng.NextBelow(4));
        rec.type = rng.NextBool(0.5) ? remotemem::BufferType::kZombie
                                     : remotemem::BufferType::kActive;
        ASSERT_TRUE(db.Insert(rec).ok());
        model[rec.id] = rec;
      } else if (op == 4) {
        const auto host = static_cast<remotemem::ServerId>(1 + rng.NextBelow(4));
        const auto type = rng.NextBool(0.5) ? remotemem::BufferType::kZombie
                                            : remotemem::BufferType::kActive;
        db.RetypeHost(host, type);
        for (auto& [id, rec] : model) {
          if (rec.host == host) {
            rec.type = type;
          }
        }
      } else {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
        const auto id = it->first;
        if (op == 1) {
          const auto user = static_cast<remotemem::ServerId>(101 + rng.NextBelow(4));
          const Status st = db.Assign(id, user);
          EXPECT_EQ(st.ok(), it->second.user == remotemem::kNilServer);
          if (st.ok()) {
            it->second.user = user;
          }
        } else if (op == 2) {
          EXPECT_TRUE(db.Release(id).ok());
          it->second.user = remotemem::kNilServer;
        } else {
          EXPECT_TRUE(db.Erase(id).ok());
          EXPECT_FALSE(db.Find(id).has_value());
          model.erase(it);
        }
      }
      check_indexes();
      if (step % 250 == 0) {
        check();
      }
    }
    check();
  }
}

// Random batches of AssignAll / ReleaseHeld / EraseAll, with unknown,
// already-free and repeated ids, against the per-id model of the test above
// (an id -> record map changed one id at a time):
//   - an assign or erase batch succeeds exactly when applying its ids one at
//     a time would, and otherwise changes nothing.  The error code is that of
//     the first id failing on the state before the call (kNotFound unknown,
//     kConflict allocated), else kConflict for an assign repeat and
//     kNotFound for an erase repeat;
//   - a release batch consumes its ids in order, skipping unknown ones, up
//     to the first one its holder does not hold.
// A SecondaryController fed the same MirrorOps must keep a record-identical
// replica.  The db uses a sharded id layout (base 2, stride 2) and now and
// then inserts a far, out-of-sequence id, so both the lookup table and its
// binary-search fallback are exercised.  The free totals and the FreeByHost
// view are checked after every step.
TEST(BufferDbProperty, RandomBatchesMatchPerIdModel) {
  using remotemem::BufferId;
  using remotemem::BufferRecord;
  using remotemem::kNilServer;
  using remotemem::MirrorOp;
  using remotemem::ServerId;
  ScopedSeedReporter seed_reporter;
  for (std::uint64_t salt = 21; salt <= 24; ++salt) {
    Rng rng(TestSeed(salt));
    const remotemem::ControllerConfig layout{.id_base = 2, .id_stride = 2};
    remotemem::BufferDb db(layout.id_base, layout.id_stride);
    remotemem::SecondaryController secondary(layout);
    std::map<BufferId, BufferRecord> model;
    BufferId next_id = layout.id_base;
    BufferId next_far_id = BufferId{1} << 40;

    auto mirror = [&](MirrorOp::Kind kind, std::span<const BufferId> ids, ServerId server) {
      secondary.ApplyMirrored({.kind = kind, .buffers = ids, .server = server});
    };
    auto check = [&] {
      std::size_t free_count = 0;
      Bytes free_bytes = 0;
      std::array<remotemem::BufferDb::FreeIndex, 2> free_index;
      ASSERT_EQ(db.records().size(), model.size());
      auto rec = db.records().begin();
      for (const auto& [id, expected] : model) {
        ASSERT_EQ(rec->id, id);
        EXPECT_EQ(rec->user, expected.user) << "id " << id;
        EXPECT_EQ(rec->host, expected.host) << "id " << id;
        EXPECT_EQ(rec->type, expected.type) << "id " << id;
        if (expected.user == kNilServer) {
          ++free_count;
          free_bytes += expected.size;
          free_index[static_cast<std::size_t>(expected.type)][expected.host].push_back(id);
        }
        ++rec;
      }
      EXPECT_EQ(db.free_count(), free_count);
      EXPECT_EQ(db.FreeBytes(), free_bytes);
      for (auto type : {remotemem::BufferType::kZombie, remotemem::BufferType::kActive}) {
        EXPECT_EQ(db.FreeByHost(type), free_index[static_cast<std::size_t>(type)]);
      }
      // The mirrored replica is record-identical.
      const auto& replica = secondary.replica().records();
      ASSERT_EQ(replica.size(), db.records().size());
      for (std::size_t i = 0; i < replica.size(); ++i) {
        const BufferRecord& a = db.records()[i];
        const BufferRecord& b = replica[i];
        ASSERT_TRUE(a.id == b.id && a.offset == b.offset && a.size == b.size &&
                    a.type == b.type && a.host == b.host && a.user == b.user &&
                    a.rkey == b.rkey)
            << "replica diverged at buffer " << a.id;
      }
      EXPECT_EQ(secondary.replica().free_count(), db.free_count());
    };
    // A batch of 1-8 ids: mostly known ones, some unknown (erased, off the
    // id sequence or never minted) and some repeats.
    auto random_batch = [&] {
      std::vector<BufferId> batch(1 + rng.NextBelow(8));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto pick = rng.NextBelow(10);
        if (pick == 0) {
          batch[i] = 1 + rng.NextBelow(next_id + 2);  // often unknown
        } else if (pick == 1 && i > 0) {
          batch[i] = batch[rng.NextBelow(i)];  // a repeat
        } else {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
          batch[i] = it->first;
        }
      }
      return batch;
    };

    for (int step = 0; step < 1500; ++step) {
      const auto op = rng.NextBelow(4);
      if (op == 0 || model.size() < 4) {
        BufferRecord rec;
        if (rng.NextBool(0.02)) {
          rec.id = next_far_id;
          next_far_id += 2 * (1 + rng.NextBelow(1000));
        } else {
          rec.id = next_id;
          next_id += layout.id_stride * (1 + rng.NextBelow(2));  // some gaps
        }
        rec.size = (1 + rng.NextBelow(4)) * kMiB;
        rec.host = static_cast<ServerId>(1 + rng.NextBelow(4));
        rec.type = rng.NextBool(0.5) ? remotemem::BufferType::kZombie
                                     : remotemem::BufferType::kActive;
        rec.rkey = rec.id * 7;
        ASSERT_TRUE(db.Insert(rec).ok());
        secondary.ApplyMirrored({.kind = MirrorOp::Kind::kInsert, .record = rec});
        model[rec.id] = rec;
      } else if (op == 1) {
        const std::vector<BufferId> batch = random_batch();
        const ServerId user =
            rng.NextBool(0.1) ? kNilServer : static_cast<ServerId>(101 + rng.NextBelow(4));
        // Per-id model, on a copy so a failing batch changes nothing.
        auto after = model;
        bool ok = true;
        for (BufferId id : batch) {
          auto it = after.find(id);
          if (it == after.end() || it->second.user != kNilServer) {
            ok = false;
            break;
          }
          it->second.user = user;
        }
        ErrorCode code = ErrorCode::kOk;
        if (!ok) {
          code = ErrorCode::kConflict;  // a repeat, unless an id fails outright
          for (BufferId id : batch) {
            auto it = model.find(id);
            if (it == model.end() || it->second.user != kNilServer) {
              code = it == model.end() ? ErrorCode::kNotFound : ErrorCode::kConflict;
              break;
            }
          }
        }
        const Status st = db.AssignAll(batch, user);
        ASSERT_EQ(st.code(), code) << "assign batch of " << batch.size();
        if (ok) {
          model = std::move(after);
          mirror(MirrorOp::Kind::kAssign, batch, user);
        }
      } else if (op == 2) {
        const std::vector<BufferId> batch = random_batch();
        const ServerId holder =
            rng.NextBool(0.1) ? kNilServer : static_cast<ServerId>(101 + rng.NextBelow(4));
        std::size_t consumed = 0;
        for (; consumed < batch.size(); ++consumed) {
          auto it = model.find(batch[consumed]);
          if (it == model.end()) {
            continue;
          }
          if (it->second.user != holder) {
            break;
          }
          it->second.user = kNilServer;
        }
        ASSERT_EQ(db.ReleaseHeld(batch, holder), consumed);
        if (consumed > 0) {
          mirror(MirrorOp::Kind::kRelease, std::span<const BufferId>(batch).first(consumed),
                 holder);
        }
      } else {
        const std::vector<BufferId> batch = random_batch();
        auto after = model;
        bool ok = true;
        for (BufferId id : batch) {
          if (after.erase(id) == 0) {
            ok = false;
            break;
          }
        }
        const Status st = db.EraseAll(batch);
        ASSERT_EQ(st.code(), ok ? ErrorCode::kOk : ErrorCode::kNotFound);
        if (ok) {
          model = std::move(after);
          mirror(MirrorOp::Kind::kErase, batch, kNilServer);
          for (BufferId id : batch) {
            EXPECT_FALSE(db.Find(id).has_value());
          }
        }
      }
      check();
      if (step % 100 == 0) {
        for (const auto& [id, rec] : model) {
          auto found = db.Find(id);
          ASSERT_TRUE(found.has_value()) << "id " << id;
          EXPECT_EQ(found->user, rec.user);
        }
      }
    }
  }
}

// The free index against a model when host ids are sparse: a few small ids
// the host table covers directly and far ones (up to UINT32_MAX - 1) it must
// binary-search, first seen in random order so hosts also enter the middle
// of the index.  FreeByHost, PickFree (round-robin over hosts ascending) and
// the free totals match the model after every step, and the host table
// stays bounded by the hosts seen, whatever the largest id.
TEST(BufferDbProperty, SparseHostIdsMatchModel) {
  using remotemem::BufferId;
  using remotemem::BufferRecord;
  using remotemem::BufferType;
  using remotemem::kNilServer;
  using remotemem::ServerId;
  constexpr std::array<ServerId, 6> kHosts = {1, 2, 63, 977, 1'000'003, UINT32_MAX - 1};
  ScopedSeedReporter seed_reporter;
  for (std::uint64_t salt = 31; salt <= 33; ++salt) {
    Rng rng(TestSeed(salt));
    remotemem::BufferDb db;
    std::map<BufferId, BufferRecord> model;
    BufferId next_id = 1;

    auto check = [&] {
      std::size_t free_count = 0;
      Bytes free_bytes = 0;
      std::array<remotemem::BufferDb::FreeIndex, 2> free_index;
      for (const auto& [id, rec] : model) {
        if (rec.user == kNilServer) {
          ++free_count;
          free_bytes += rec.size;
          free_index[static_cast<std::size_t>(rec.type)][rec.host].push_back(id);
        }
      }
      EXPECT_EQ(db.free_count(), free_count);
      EXPECT_EQ(db.FreeBytes(), free_bytes);
      EXPECT_LE(db.host_table_size(), 2 * kHosts.size() + 64);
      for (BufferType type : {BufferType::kZombie, BufferType::kActive}) {
        const auto& index = free_index[static_cast<std::size_t>(type)];
        EXPECT_EQ(db.FreeByHost(type), index);
        const std::size_t want = rng.NextBelow(free_count + 3);
        std::vector<BufferId> picks;
        for (std::size_t round = 0; picks.size() < want; ++round) {
          const std::size_t before = picks.size();
          for (const auto& [host, ids] : index) {
            if (picks.size() < want && round < ids.size()) {
              picks.push_back(ids[round]);
            }
          }
          if (picks.size() == before) {
            break;
          }
        }
        EXPECT_EQ(db.PickFree(type, want), picks) << "want " << want;
      }
    };

    for (int step = 0; step < 1500; ++step) {
      const auto op = rng.NextBelow(6);
      if (op == 0 || model.size() < 4) {
        BufferRecord rec;
        rec.id = next_id++;
        rec.size = (1 + rng.NextBelow(4)) * kMiB;
        rec.host = kHosts[rng.NextBelow(kHosts.size())];
        rec.type = rng.NextBool(0.5) ? BufferType::kZombie : BufferType::kActive;
        ASSERT_TRUE(db.Insert(rec).ok());
        model[rec.id] = rec;
      } else if (op == 4) {
        const ServerId host = kHosts[rng.NextBelow(kHosts.size())];
        const BufferType type = rng.NextBool(0.5) ? BufferType::kZombie : BufferType::kActive;
        db.RetypeHost(host, type);
        for (auto& [id, rec] : model) {
          if (rec.host == host) {
            rec.type = type;
          }
        }
      } else if (op == 5) {
        db.Load(db.Snapshot());  // rebuilds the index from the records
      } else {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(model.size())));
        const BufferId id = it->first;
        if (op == 1) {
          const Status st = db.Assign(id, 100);
          EXPECT_EQ(st.ok(), it->second.user == kNilServer);
          it->second.user = 100;
        } else if (op == 2) {
          EXPECT_TRUE(db.Release(id).ok());
          it->second.user = kNilServer;
        } else {
          EXPECT_TRUE(db.Erase(id).ok());
          model.erase(it);
        }
      }
      check();
    }
  }
}

// ---------------------------------------------------------------------------
// Energy-model physical orderings for randomly perturbed machines.
// ---------------------------------------------------------------------------

TEST(EnergyModelProperty, OrderingsHoldForPerturbedMachines) {
  ScopedSeedReporter seed_reporter;
  Rng rng(TestSeed(2024));
  for (int i = 0; i < 200; ++i) {
    acpi::ComponentDraws d{};
    d.platform_standby = rng.NextDouble(0.1, 2.0);
    d.suspend_logic = rng.NextDouble(0.2, 2.0);
    d.ram_self_refresh = rng.NextDouble(0.5, 3.0);
    d.ram_active_idle = d.ram_self_refresh + rng.NextDouble(0.5, 2.0);
    d.idle_compute = rng.NextDouble(25.0, 45.0);
    d.ib_wol_s3 = rng.NextDouble(4.0, 8.0);
    d.ib_wol_s4 = rng.NextDouble(4.0, 8.0);
    d.ib_idle_extra = rng.NextDouble(4.0, 8.0);
    d.ib_active_extra = rng.NextDouble(1.0, 3.0);
    // Active compute fills the rest up to 100%.
    const double idle_total = d.platform_standby + d.suspend_logic + d.ram_self_refresh +
                              d.idle_compute + d.ib_idle_extra + d.ib_active_extra;
    d.active_compute = 100.0 - idle_total;
    acpi::MachineProfile m("fuzzed", 150.0, d);

    // Physical orderings that must hold for any machine:
    EXPECT_LT(m.ConfigPercent(acpi::MeasuredConfig::kS4WithoutIb),
              m.ConfigPercent(acpi::MeasuredConfig::kS3WithoutIb));
    EXPECT_LT(m.ConfigPercent(acpi::MeasuredConfig::kS3WithoutIb),
              m.ConfigPercent(acpi::MeasuredConfig::kS0WithoutIb));
    EXPECT_LT(m.ConfigPercent(acpi::MeasuredConfig::kS0WithoutIb),
              m.ConfigPercent(acpi::MeasuredConfig::kS0IbOff));
    EXPECT_LT(m.ConfigPercent(acpi::MeasuredConfig::kS0IbOff),
              m.ConfigPercent(acpi::MeasuredConfig::kS0IbOn));
    // Sz sits above S3-with-IB (it powers strictly more) and far below idle.
    EXPECT_GT(m.SzPercent(), m.ConfigPercent(acpi::MeasuredConfig::kS3WithIb));
    EXPECT_LT(m.SzPercent(), m.S0Percent(0.0));
    EXPECT_GT(m.SzModelPercent(), m.SzPercent());
    // The S0 curve is monotone and pinned at 100% under full load.
    EXPECT_NEAR(m.S0Percent(1.0), 100.0, 1e-6);
    EXPECT_LT(m.S0Percent(0.3), m.S0Percent(0.7));
  }
}

// ---------------------------------------------------------------------------
// The consolidation planner over random host views: the plan executes in
// order within every host's capacity, and only hosts it empties suspend.
// ---------------------------------------------------------------------------

std::vector<sim::HostView> RandomHostViews(Rng& rng) {
  std::vector<sim::HostView> hosts(2 + rng.NextBelow(11));
  std::uint64_t next_vm = 1;
  for (sim::HostView& host : hosts) {
    const auto kind = rng.NextBelow(8);
    if (kind == 0) {
      host.state = acpi::SleepState::kSz;
      host.lent_mem = rng.NextDouble(0.0, 0.9);
      continue;
    }
    if (kind == 1) {
      host.state = acpi::SleepState::kS3;
      continue;
    }
    if (rng.NextBool(0.2)) {
      host.lent_mem = rng.NextDouble(0.0, 0.3);
    }
    const auto vms = rng.NextBelow(5);
    for (std::uint64_t i = 0; i < vms; ++i) {
      sim::VmView vm;
      vm.id = next_vm++;
      vm.booked_cpu = static_cast<double>(1 + rng.NextBelow(4)) / 8.0;
      // A third of the VMs are nearly idle, so many hosts are underloaded.
      vm.used_cpu = vm.booked_cpu * (rng.NextBool(0.3) ? rng.NextDouble(0.0, 0.05)
                                                        : rng.NextDouble());
      vm.local_mem = rng.NextDouble(0.02, 0.3);
      vm.needed_if_moved = rng.NextDouble(0.0, 0.4);
      if (host.booked_cpu + vm.booked_cpu > 1.0 ||
          host.local_mem + vm.local_mem > 1.0 - host.lent_mem) {
        break;
      }
      host.booked_cpu += vm.booked_cpu;
      host.used_cpu += vm.used_cpu;
      host.local_mem += vm.local_mem;
      host.vms.push_back(vm);
    }
  }
  return hosts;
}

TEST(ConsolidationProperty, PlansExecuteWithinCapacityAndSuspendOnlyEmptiedHosts) {
  ScopedSeedReporter seed_reporter;
  std::size_t total_moves = 0;
  for (std::uint64_t salt = 1; salt <= 300; ++salt) {
    Rng rng(TestSeed(9000 + salt));
    std::vector<sim::HostView> hosts = RandomHostViews(rng);
    const sim::ConsolidationPlan plan = sim::PlanConsolidation(hosts);

    // Deterministic: the same view plans the same moves.
    const sim::ConsolidationPlan again = sim::PlanConsolidation(hosts);
    ASSERT_EQ(again.suspend, plan.suspend);
    ASSERT_EQ(again.moves.size(), plan.moves.size());
    for (std::size_t i = 0; i < plan.moves.size(); ++i) {
      EXPECT_EQ(again.moves[i].vm, plan.moves[i].vm);
      EXPECT_EQ(again.moves[i].from, plan.moves[i].from);
      EXPECT_EQ(again.moves[i].to, plan.moves[i].to);
    }

    // Execute in order.  A VM moved onto a host that is drained later in
    // the round moves on again (fig10's rules), so each move must start
    // where the VM currently is, and every target stays within capacity
    // after every move.
    std::map<std::uint64_t, std::size_t> where;
    std::map<std::uint64_t, sim::VmView> vms;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      for (const sim::VmView& vm : hosts[h].vms) {
        where[vm.id] = h;
        vms[vm.id] = vm;
      }
    }
    const std::vector<sim::HostView> before = hosts;
    for (const sim::Move& move : plan.moves) {
      ASSERT_TRUE(where.contains(move.vm));
      ASSERT_EQ(where[move.vm], move.from) << "vm" << move.vm;
      ASSERT_NE(move.from, move.to);
      ASSERT_EQ(before[move.to].state, acpi::SleepState::kS0);
      sim::VmView& vm = vms[move.vm];
      sim::HostView& from = hosts[move.from];
      sim::HostView& to = hosts[move.to];
      from.booked_cpu -= vm.booked_cpu;
      from.local_mem -= vm.local_mem;
      to.booked_cpu += vm.booked_cpu;
      to.local_mem += vm.needed_if_moved;
      vm.local_mem = vm.needed_if_moved;
      where[move.vm] = move.to;
      EXPECT_LE(to.booked_cpu, 1.0 + 1e-6);
      EXPECT_LE(to.local_mem, 1.0 - to.lent_mem + 1e-6);
    }
    total_moves += plan.moves.size();

    // Exactly the awake hosts left empty suspend: no VM ends on one, and
    // no sleeping host is suspended again.
    std::vector<std::size_t> occupancy(hosts.size(), 0);
    for (const auto& [vm, host] : where) {
      ++occupancy[host];
    }
    std::vector<std::size_t> expected;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (before[h].state == acpi::SleepState::kS0 && occupancy[h] == 0) {
        expected.push_back(h);
      }
    }
    EXPECT_EQ(plan.suspend, expected);
  }
  // The generator must make the planner move VMs, or this proves nothing.
  EXPECT_GT(total_moves, 100u);
}

// ---------------------------------------------------------------------------
// Migration dominance across the parameter space.
// ---------------------------------------------------------------------------

TEST(MigrationProperty, ZombieNeverMovesMoreBytesThanPreCopy) {
  ScopedSeedReporter seed_reporter;
  Rng rng(TestSeed(7));
  for (int i = 0; i < 100; ++i) {
    hv::VmSpec vm;
    vm.reserved_memory = (1 + rng.NextBelow(15)) * kGiB;
    vm.working_set = static_cast<Bytes>(rng.NextDouble(0.1, 0.95) *
                                        static_cast<double>(vm.reserved_memory));
    const double local_fraction = rng.NextDouble(0.1, 0.9);
    const auto buffers = 1 + rng.NextBelow(64);
    const auto native = migration::PreCopyMigrate(vm);
    const auto zombie = migration::ZombieMigrate(vm, local_fraction, buffers);
    EXPECT_LE(zombie.bytes_moved, native.bytes_moved);
    EXPECT_LE(zombie.downtime, zombie.total_time);
    EXPECT_LE(native.downtime, native.total_time);
    // The hot part can never exceed either the WSS or the local share.
    EXPECT_LE(zombie.bytes_moved, vm.working_set);
    EXPECT_LE(zombie.bytes_moved,
              static_cast<Bytes>(local_fraction * static_cast<double>(vm.reserved_memory)) +
                  kPageSize);
  }
}

// ---------------------------------------------------------------------------
// ParseJson under mutation: byte flips, deletions, insertions and
// truncations of well-formed documents.  Every mutant must come back as a
// value or a kInvalidArgument status (the ASan lane checks memory safety).
// ---------------------------------------------------------------------------

#ifndef ZOMBIE_TOLERANCES_JSON
#error "the build must define ZOMBIE_TOLERANCES_JSON=<path to bench/tolerances.json>"
#endif

std::string RenderedReportForMutation() {
  report::Report r("mutant_seed", "a \"quoted\" title");
  r.Text("== text with a tab\t and a newline ==\n");
  auto& table = r.AddTable("t", "Table", {"policy", "fraction", "seconds"});
  table.Row({"FIFO", "0.2", "1.5e-3"});
  table.Row({"LRU", "0.5", "-0"});
  r.Metric("joules", 123456.789);
  r.Metric("tiny", 1e-17);
  r.Metric("zero", 0.0);
  auto& points = r.MutablePoints();
  points.resize(2);
  points[0].axes = {{"policy", "FIFO"}, {"fraction", "0.2"}};
  points[0].Metric("exec_seconds", 2.5);
  points[1].axes = {{"policy", "LRU"}, {"fraction", "0.5"}};
  points[1].Metric("exec_seconds", 100.0 - 46.16);
  return r.RenderJson();
}

TEST(ParseJsonTest, MutantsNeverCrash) {
  ScopedSeedReporter seed_reporter;
  std::ifstream in(ZOMBIE_TOLERANCES_JSON, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << ZOMBIE_TOLERANCES_JSON;
  std::ostringstream tolerances;
  tolerances << in.rdbuf();
  const std::string originals[] = {RenderedReportForMutation(), tolerances.str()};
  for (const std::string& original : originals) {
    ASSERT_TRUE(report::ParseJson(original).ok());
  }

  constexpr std::string_view kAlphabet = "{}[]:,\"\\-+.eE0123456789 tfnu";
  Rng rng(TestSeed(716));
  std::size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string mutant = originals[i % 2];
    const int edits = 1 + static_cast<int>(rng.NextBelow(3));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const std::size_t at = rng.NextBelow(mutant.size());
      const char c = kAlphabet[rng.NextBelow(kAlphabet.size())];
      switch (rng.NextBelow(4)) {
        case 0:
          mutant[at] = c;
          break;
        case 1:
          mutant.erase(at, 1);
          break;
        case 2:
          mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:
          mutant.resize(at);
          break;
      }
    }
    auto parsed = report::ParseJson(mutant);
    if (!parsed.ok()) {
      ++rejected;
      ASSERT_EQ(parsed.code(), ErrorCode::kInvalidArgument) << mutant;
      ASSERT_EQ(parsed.status().message().rfind("JSON error at offset ", 0), 0u)
          << parsed.status().message();
    }
    // The tolerance reader sits on top; it must fail as cleanly.
    auto options = scenario::ParseToleranceFile(mutant, "mutant.json");
    if (!options.ok()) {
      ASSERT_EQ(options.code(), ErrorCode::kInvalidArgument) << mutant;
    }
  }
  // The mutator must actually break documents, or the test proves nothing.
  EXPECT_GT(rejected, 10000u);
}

}  // namespace
}  // namespace zombie
