// Baseline overlays: Law–Siu Hamiltonian-cycle composition, the flooding
// full-rebuild network, and the flip-chain almost-regular overlay —
// structure, churn behavior, cost profiles, and their (probabilistic)
// expansion under benign churn.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/flood_rebuild.h"
#include "baselines/law_siu.h"
#include "baselines/random_flip.h"
#include "graph/bfs.h"
#include "graph/spectral.h"
#include "support/prng.h"

namespace b = dex::baselines;
namespace g = dex::graph;

TEST(LawSiu, InitialCyclesAreValid) {
  b::LawSiuNetwork net(50, 3, 11);
  const auto snap = net.snapshot();
  // Union of 3 Hamiltonian cycles: every node has degree 6 (as multigraph).
  for (auto u : net.alive_nodes()) EXPECT_EQ(snap.degree(u), 6u);
  EXPECT_TRUE(g::is_connected(snap, net.alive_mask()));
}

TEST(LawSiu, InsertMaintainsCycles) {
  b::LawSiuNetwork net(20, 2, 12);
  const auto u = net.insert();
  EXPECT_TRUE(net.alive(u));
  EXPECT_EQ(net.n(), 21u);
  const auto snap = net.snapshot();
  for (auto v : net.alive_nodes()) EXPECT_EQ(snap.degree(v), 4u);
  EXPECT_GT(net.last_step().topology_changes, 0u);
  EXPECT_GT(net.last_step().messages, 0u);
}

TEST(LawSiu, RemoveMaintainsCycles) {
  b::LawSiuNetwork net(20, 2, 13);
  net.remove(7);
  EXPECT_FALSE(net.alive(7));
  const auto snap = net.snapshot();
  for (auto v : net.alive_nodes()) EXPECT_EQ(snap.degree(v), 4u);
  EXPECT_TRUE(g::is_connected(snap, net.alive_mask()));
}

TEST(LawSiu, LongChurnStaysConsistent) {
  b::LawSiuNetwork net(30, 3, 14);
  dex::support::Rng rng(1);
  for (int t = 0; t < 500; ++t) {
    if (rng.chance(0.5) || net.n() < 10) {
      net.insert();
    } else {
      const auto nodes = net.alive_nodes();
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  const auto snap = net.snapshot();
  EXPECT_TRUE(snap.is_consistent());
  EXPECT_TRUE(g::is_connected(snap, net.alive_mask()));
  for (auto v : net.alive_nodes()) EXPECT_EQ(snap.degree(v), 6u);
}

TEST(LawSiu, IsExpanderUnderBenignChurn) {
  b::LawSiuNetwork net(100, 4, 15);
  dex::support::Rng rng(2);
  for (int t = 0; t < 200; ++t) {
    if (rng.chance(0.5)) {
      net.insert();
    } else {
      const auto nodes = net.alive_nodes();
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  const auto spec = g::spectral_gap(net.snapshot(), net.alive_mask());
  EXPECT_GT(spec.gap, 0.1);  // random Hamiltonian compositions expand w.h.p.
}

TEST(FloodRebuild, GuaranteesButThetaNCost) {
  b::FloodRebuildNetwork net(64);
  const auto u = net.insert();
  EXPECT_TRUE(net.alive(u));
  // Θ(n) messages per step — that's the point of the baseline.
  EXPECT_GT(net.last_step().messages, 3 * 64u);
  net.remove(2);
  EXPECT_GT(net.last_step().messages, 3 * 64u);
  const auto spec = g::spectral_gap(net.snapshot(), net.alive_mask());
  EXPECT_GT(spec.gap, 0.02);  // same deterministic guarantee as DEX
  EXPECT_LE(net.max_degree(), 3 * 9u);
  EXPECT_TRUE(g::is_connected(net.snapshot(), net.alive_mask()));
}

// Degree convention (graph/multigraph.h, DEX's Lemma 10 contraction): a
// virtual edge between two distinct vertices dealt to the same node is a
// self-loop counting 2, so every node's snapshot degree is 3 per vertex —
// exactly what degree() and max_degree() report.
TEST(FloodRebuild, DegreeMatchesSnapshotDegree) {
  for (std::size_t n0 = 5; n0 < 400; n0 += 7) {
    b::FloodRebuildNetwork net(n0);
    const auto snap = net.snapshot();
    std::size_t best = 0;
    for (const auto u : net.alive_nodes()) {
      ASSERT_EQ(net.degree(u), snap.degree(u))
          << "n0 " << n0 << " node " << u;
      best = std::max(best, snap.degree(u));
    }
    ASSERT_EQ(net.max_degree(), best) << "n0 " << n0;
  }
}

TEST(FloodRebuild, ChurnKeepsPInRange) {
  b::FloodRebuildNetwork net(32);
  dex::support::Rng rng(3);
  for (int t = 0; t < 100; ++t) {
    if (rng.chance(0.6) || net.n() < 8) {
      net.insert();
    } else {
      const auto nodes = net.alive_nodes();
      net.remove(nodes[rng.below(nodes.size())]);
    }
    EXPECT_GT(net.p(), 4 * net.n());
    EXPECT_LT(net.p(), 8 * net.n());
  }
}

TEST(RandomFlip, StartsRegularStaysAlmostRegular) {
  b::RandomFlipNetwork net(60, 6, 16);
  const auto snap0 = net.snapshot();
  for (auto u : net.alive_nodes()) EXPECT_EQ(snap0.degree(u), 6u);
  dex::support::Rng rng(4);
  for (int t = 0; t < 200; ++t) {
    if (rng.chance(0.5)) {
      net.insert();
    } else {
      const auto nodes = net.alive_nodes();
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  // Degrees stay near 6 (flip-chain baselines drift but do not blow up).
  EXPECT_LE(net.max_degree(), 14u);
  EXPECT_TRUE(net.snapshot().is_consistent());
}

TEST(RandomFlip, ExpandsUnderBenignChurn) {
  b::RandomFlipNetwork net(120, 6, 17);
  dex::support::Rng rng(5);
  for (int t = 0; t < 150; ++t) {
    if (rng.chance(0.5)) {
      net.insert();
    } else {
      const auto nodes = net.alive_nodes();
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  const auto spec = g::spectral_gap(net.snapshot(), net.alive_mask());
  EXPECT_GT(spec.gap, 0.05);
}
