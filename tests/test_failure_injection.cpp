// Failure injection: adversarial sequences engineered at the algorithm's
// softest spots — coordinator neighborhoods, freshly repaired nodes,
// rebuild boundaries, interleaved batch/single-step churn — every one of
// which the paper's model permits.

#include <gtest/gtest.h>

#include "dex/batch.h"
#include "dex/network.h"
#include "graph/bfs.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "support/prng.h"

using dex::DexNetwork;
using dex::NodeId;
using dex::Params;

namespace {

Params mode(dex::RecoveryMode m, std::uint64_t seed) {
  Params p;
  p.seed = seed;
  p.mode = m;
  return p;
}

}  // namespace

TEST(FailureInjection, AssassinateCoordinatorNeighborhood) {
  // Kill every current neighbor of the coordinator, then the coordinator,
  // repeatedly — the replica hand-over (Alg. 4.7) must never lose state.
  DexNetwork net(48, mode(dex::RecoveryMode::WorstCase, 201));
  std::vector<std::uint64_t> ports;
  for (int round = 0; round < 6; ++round) {
    const NodeId coord = net.coordinator();
    net.ports_of(coord, ports);
    std::vector<NodeId> neighbors;
    for (auto t : ports) {
      const auto c = static_cast<NodeId>(t);
      if (c != coord && net.alive(c)) neighbors.push_back(c);
    }
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    for (NodeId v : neighbors) {
      if (net.n() <= 8) break;
      if (net.alive(v) && v != net.coordinator()) net.remove(v);
    }
    if (net.n() > 8) net.remove(net.coordinator());
    while (net.n() < 48) net.insert(net.alive_nodes().front());
    net.check_invariants();
  }
}

TEST(FailureInjection, KillTheRepairerImmediately) {
  // Delete a node, then immediately delete whichever node absorbed its
  // vertices (the highest-load node is a good proxy for the repairer).
  DexNetwork net(32, mode(dex::RecoveryMode::WorstCase, 202));
  dex::support::Rng rng(1);
  for (int t = 0; t < 60; ++t) {
    const auto nodes = net.alive_nodes();
    net.remove(nodes[rng.below(nodes.size())]);
    NodeId heaviest = net.alive_nodes().front();
    for (NodeId u : net.alive_nodes()) {
      if (net.total_load(u) > net.total_load(heaviest)) heaviest = u;
    }
    net.remove(heaviest);
    net.insert(net.alive_nodes().front());
    net.insert(net.alive_nodes().back());
    net.check_invariants();
  }
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
}

TEST(FailureInjection, KillEveryNewcomerInstantly) {
  // Insert then instantly delete, forever: the spare-vertex pool must not
  // leak (loads return to their pre-insert state).
  DexNetwork net(24, mode(dex::RecoveryMode::WorstCase, 203));
  const auto p_before = net.p();
  for (int t = 0; t < 200; ++t) {
    const NodeId u = net.insert(net.alive_nodes().front());
    net.remove(u);
  }
  net.check_invariants();
  EXPECT_EQ(net.n(), 24u);
  EXPECT_EQ(net.p(), p_before);  // never crossed a rebuild threshold
  EXPECT_EQ(net.inflation_count() + net.deflation_count(), 0u);
}

TEST(FailureInjection, ChurnPinnedToOneAttachPoint) {
  // Every insertion attaches to the same victim node: its degree must still
  // stay bounded (the bootstrap edge is dropped after recovery).
  DexNetwork net(24, mode(dex::RecoveryMode::WorstCase, 204));
  const NodeId pin = net.alive_nodes()[5];
  for (int t = 0; t < 150; ++t) net.insert(pin);
  const auto g = net.snapshot();
  EXPECT_LE(g.degree(pin), 3 * 2 * net.params().max_load());
  net.check_invariants();
}

TEST(FailureInjection, BatchThenSingleStepInterleaving) {
  DexNetwork net(64, mode(dex::RecoveryMode::Amortized, 205));
  dex::support::Rng rng(2);
  for (int round = 0; round < 10; ++round) {
    dex::BatchRequest req;
    const auto nodes = net.alive_nodes();
    for (int i = 0; i < 5; ++i)
      req.attach_to.push_back(nodes[rng.below(nodes.size())]);
    dex::apply_batch(net, req);
    for (int i = 0; i < 5 && net.n() > 16; ++i) {
      net.remove(net.alive_nodes()[rng.below(net.n())]);
    }
    net.check_invariants();
  }
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
}

TEST(FailureInjection, KvStoreUnderCoordinatorKillsAndDeflationStaggering) {
  // Drive an actual staggered *deflation* and hammer the key-value store
  // through it, after killing the coordinator five times at peak size.
  // (Needs enough scale that the staggered window spans multiple steps —
  // below n ≈ 100 the batch covers the whole cycle in one step.)
  dex::sim::DexOverlay overlay(256, mode(dex::RecoveryMode::WorstCase, 206));
  dex::adversary::AdversaryView view(overlay);
  dex::sim::KvStore kv(overlay, /*capacity=*/512);
  const auto& net = overlay.net();
  const auto resync = [&] {
    view.advance();
    kv.sync(view);
  };
  const auto expect_value = [&](std::uint64_t k) {
    const auto r = kv.get(k, overlay.special_node());
    ASSERT_TRUE(r.ok) << "lost key " << k;
    EXPECT_EQ(*r.value, ~k);
  };
  resync();
  dex::support::Rng rng(3);
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(kv.put(k, ~k, overlay.special_node()).ok);
  }
  // Grow (forces an inflation), then shrink (forces a deflation).
  while (net.inflation_count() == 0 || net.staggered_active()) {
    overlay.insert(net.alive_nodes()[rng.below(net.n())]);
    resync();
  }
  for (int i = 0; i < 5; ++i) {
    overlay.remove(net.coordinator());
    resync();
    expect_value(rng.below(64));
  }
  std::size_t mid_deflation_lookups = 0;
  while ((net.deflation_count() == 0 || net.staggered_active()) &&
         net.n() > 8) {
    overlay.remove(net.alive_nodes()[rng.below(net.n())]);
    resync();
    if (net.staggered_active() && net.deflation_count() > 0) {
      expect_value(rng.below(64));
      ++mid_deflation_lookups;
    }
  }
  EXPECT_GT(mid_deflation_lookups, 0u);
  net.check_invariants();
  for (std::uint64_t k = 0; k < 64; ++k) expect_value(k);
}

TEST(FailureInjection, AlternatingExtremesAcrossThresholds) {
  // Grow 6x, shrink 6x, twice — crosses inflation and deflation in both
  // modes, with invariant audits at the turning points.
  for (auto m : {dex::RecoveryMode::WorstCase, dex::RecoveryMode::Amortized}) {
    DexNetwork net(24, mode(m, 207));
    dex::support::Rng rng(4);
    for (int cycle = 0; cycle < 2; ++cycle) {
      while (net.n() < 144) {
        net.insert(net.alive_nodes()[rng.below(net.n())]);
      }
      net.check_invariants();
      while (net.n() > 24) {
        net.remove(net.alive_nodes()[rng.below(net.n())]);
      }
      net.check_invariants();
    }
    EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
    EXPECT_EQ(net.forced_sync_type2(), 0u)
        << (m == dex::RecoveryMode::WorstCase ? "worst-case" : "amortized");
  }
}
