// Component micro-benchmarks (google-benchmark): the host-side overhead of
// the simulated RDMA verbs and fabric pricing — i.e. how cheap the simulator
// itself is, and the simulated costs it reports.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/verbs.h"

namespace {

using zombie::rdma::Fabric;
using zombie::rdma::MrAccess;
using zombie::rdma::NodeId;
using zombie::rdma::NodePort;
using zombie::rdma::Verbs;

struct Harness {
  Harness() : verbs(&fabric) {
    NodePort port_a;
    port_a.name = "a";
    port_a.can_initiate = [] { return true; };
    port_a.memory_accessible = [] { return true; };
    a = fabric.Attach(std::move(port_a));
    NodePort port_b;
    port_b.name = "b";
    port_b.can_initiate = [] { return false; };  // zombie target
    port_b.memory_accessible = [] { return true; };
    b = fabric.Attach(std::move(port_b));
  }

  Fabric fabric;
  Verbs verbs;
  NodeId a = 0;
  NodeId b = 0;
};

void BM_OneSidedRead4K(benchmark::State& state) {
  Harness h;
  auto rkey = h.verbs.RegisterRegion(h.b, 1 << 20);
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    auto cost = h.verbs.Read(h.a, rkey.value(), 0, buf);
    benchmark::DoNotOptimize(cost);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_OneSidedRead4K);

void BM_OneSidedWrite4K(benchmark::State& state) {
  Harness h;
  auto rkey = h.verbs.RegisterRegion(h.b, 1 << 20);
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    auto cost = h.verbs.Write(h.a, rkey.value(), 0, buf);
    benchmark::DoNotOptimize(cost);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_OneSidedWrite4K);

void BM_OneSidedReadUnmaterialized(benchmark::State& state) {
  Harness h;
  MrAccess acc;
  acc.materialize = false;
  auto rkey = h.verbs.RegisterRegion(h.b, 1ULL << 34, acc);
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    auto cost = h.verbs.Read(h.a, rkey.value(), 1ULL << 30, buf);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_OneSidedReadUnmaterialized);

void BM_FabricPricingOnly(benchmark::State& state) {
  Harness h;
  for (auto _ : state) {
    auto cost = h.fabric.PriceOneSided(h.a, h.b, 4096);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_FabricPricingOnly);

}  // namespace
