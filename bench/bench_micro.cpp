// E11 — micro-performance of the substrate (google-benchmark). Not a paper
// figure; engineering sanity so the simulator itself is never the
// bottleneck of the experiments: p-cycle arithmetic, walk stepping, spectral
// solves, DexNetwork step latency, KvStore ops over DEX.

#include <benchmark/benchmark.h>

#include "dex/network.h"
#include "dex/pcycle.h"
#include "graph/spectral.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "support/mathutil.h"
#include "support/prng.h"

namespace {

void BM_ModInv(benchmark::State& state) {
  const std::uint64_t p = 1'000'003;
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = (x % (p - 1)) + 1;
    benchmark::DoNotOptimize(dex::support::modinv(x * 7919 % p, p));
  }
}
BENCHMARK(BM_ModInv);

void BM_IsPrime(benchmark::State& state) {
  std::uint64_t n = 1'000'000'000'039ULL;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dex::support::is_prime(n));
  }
}
BENCHMARK(BM_IsPrime);

void BM_PCyclePorts(benchmark::State& state) {
  const dex::PCycle cyc(1'000'003);
  std::uint64_t x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cyc.ports(x));
    x = (x * 48271) % 1'000'003;
  }
}
BENCHMARK(BM_PCyclePorts);

void BM_PCycleDistance(benchmark::State& state) {
  const dex::PCycle cyc(static_cast<std::uint64_t>(state.range(0)));
  dex::support::Rng rng(1);
  for (auto _ : state) {
    const auto a = rng.below(cyc.p());
    const auto b = rng.below(cyc.p());
    benchmark::DoNotOptimize(cyc.distance(a, b));
  }
}
BENCHMARK(BM_PCycleDistance)->Arg(1009)->Arg(16411)->Arg(131071);

void BM_SpectralGap(benchmark::State& state) {
  dex::Params prm;
  prm.seed = 1;
  dex::DexNetwork net(static_cast<std::size_t>(state.range(0)), prm);
  const auto g = net.snapshot();
  const auto mask = net.alive_mask();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dex::graph::spectral_gap(g, mask));
  }
}
BENCHMARK(BM_SpectralGap)->Arg(256)->Arg(1024);

void BM_DexInsertDeleteCycle(benchmark::State& state) {
  dex::Params prm;
  prm.seed = 2;
  prm.mode = dex::RecoveryMode::WorstCase;
  dex::DexNetwork net(static_cast<std::size_t>(state.range(0)), prm);
  dex::support::Rng rng(3);
  for (auto _ : state) {
    const auto nodes = net.alive_nodes();
    const auto u = net.insert(nodes[rng.below(nodes.size())]);
    net.remove(u);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2));
}
BENCHMARK(BM_DexInsertDeleteCycle)->Arg(256)->Arg(2048);

void BM_KvStorePutGet(benchmark::State& state) {
  dex::Params prm;
  prm.seed = 4;
  dex::sim::DexOverlay overlay(1024, prm);
  dex::adversary::AdversaryView view(overlay);
  dex::sim::KvStore kv(overlay);
  kv.sync(view);
  const dex::NodeId origin = overlay.special_node();
  std::uint64_t k = 0;
  for (auto _ : state) {
    kv.put(k, k, origin);
    benchmark::DoNotOptimize(kv.get(k, origin));
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 2));
}
BENCHMARK(BM_KvStorePutGet);

void BM_WalkStep(benchmark::State& state) {
  dex::Params prm;
  prm.seed = 5;
  dex::DexNetwork net(4096, prm);
  dex::support::Rng rng(6);
  std::vector<std::uint64_t> ports;
  dex::NodeId cur = 0;
  for (auto _ : state) {
    net.ports_of(cur, ports);
    cur = static_cast<dex::NodeId>(ports[rng.below(ports.size())]);
    benchmark::DoNotOptimize(cur);
  }
}
BENCHMARK(BM_WalkStep);

}  // namespace

BENCHMARK_MAIN();
