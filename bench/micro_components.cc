// Component micro-benchmarks (google-benchmark): replacement-policy victim
// selection, buffer-database operations, the control plane's RAM-Ext
// allocate/release path, and the OSPM suspend cycle.  (The pager's access
// and fault path is timed by perfbench's hv.access_self_ns.)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/acpi/machine.h"
#include "src/hv/replacement.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/sharded_plane.h"

namespace {

using zombie::acpi::Machine;
using zombie::acpi::MachineProfile;
using zombie::hv::GuestPageTable;
using zombie::hv::MakePolicy;
using zombie::hv::PagingParams;
using zombie::hv::PolicyKind;
using zombie::Bytes;
using zombie::remotemem::BufferDb;
using zombie::remotemem::BufferGrant;
using zombie::remotemem::BufferId;
using zombie::remotemem::BufferRecord;
using zombie::remotemem::BufferType;
using zombie::remotemem::PlaneConfig;
using zombie::remotemem::ServerId;
using zombie::remotemem::ShardedControlPlane;

void BM_PolicyPickVictim(benchmark::State& state) {
  const auto kind = static_cast<PolicyKind>(state.range(0));
  const std::size_t resident = static_cast<std::size_t>(state.range(1));
  PagingParams params;
  GuestPageTable table(resident + 1);
  auto policy = MakePolicy(kind, params);
  for (std::size_t p = 0; p < resident; ++p) {
    table.at(p).present = true;
    if ((p % 2) == 0) {
      table.SetAccessed(p);  // half the pages recently touched
    }
    policy->OnPageIn(p);
  }
  std::size_t next = resident;
  for (auto _ : state) {
    auto victim = policy->PickVictim(table);
    benchmark::DoNotOptimize(victim);
    // Keep the list full so every iteration does real work.
    table.at(victim.page).present = false;
    table.at(next % table.size()).present = true;
    policy->OnPageIn(victim.page);
    table.at(victim.page).present = true;
    ++next;
  }
}
BENCHMARK(BM_PolicyPickVictim)
    ->Args({0, 1024})   // FIFO
    ->Args({1, 1024})   // Clock
    ->Args({2, 1024});  // Mixed

void BM_BufferDbAllocateRelease(benchmark::State& state) {
  BufferDb db;
  const std::size_t n = 4096;
  for (std::size_t i = 1; i <= n; ++i) {
    BufferRecord rec;
    rec.id = i;
    rec.size = 64 << 20;
    rec.type = i % 2 == 0 ? BufferType::kZombie : BufferType::kActive;
    rec.host = static_cast<std::uint32_t>(i % 16 + 1);
    (void)db.Insert(rec);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto id = (i++ % n) + 1;
    (void)db.Assign(id, 99);
    (void)db.Release(id);
  }
}
BENCHMARK(BM_BufferDbAllocateRelease);

// The control plane's RAM-Ext path on one shard holding 4096 buffers
// (16 zombie hosts x 256): GS_alloc_ext of 32 buffers, then GS_release.
void BM_PlaneAllocExtRelease(benchmark::State& state) {
  constexpr Bytes kBuff = 64 * zombie::kMiB;
  constexpr ServerId kUser = 17;
  ShardedControlPlane plane(PlaneConfig{.buff_size = kBuff, .shards = 1, .lease = {},
                                        .secondary = {}});
  for (ServerId host = 1; host <= kUser; ++host) {
    plane.RegisterServer(host);
  }
  for (ServerId host = 1; host < kUser; ++host) {
    std::vector<BufferGrant> grants(256, BufferGrant{zombie::remotemem::kInvalidBuffer, 1, kBuff,
                                                     host, BufferType::kZombie});
    (void)plane.GsGotoZombie(host, grants);
  }
  std::vector<BufferId> ids;
  for (auto _ : state) {
    auto grants = plane.GsAllocExt(kUser, 32 * kBuff);
    ids.clear();
    for (const auto& g : grants.value()) {
      ids.push_back(g.id);
    }
    auto status = plane.GsRelease(kUser, ids);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_PlaneAllocExtRelease);

void BM_OspmSuspendResumeCycle(benchmark::State& state) {
  Machine machine("bench", MachineProfile::HpCompaqElite8300(), true);
  for (auto _ : state) {
    auto status = machine.Suspend(zombie::acpi::SleepState::kSz);
    benchmark::DoNotOptimize(status);
    machine.WakeOnLan();
  }
}
BENCHMARK(BM_OspmSuspendResumeCycle);

}  // namespace
