// BFS / connectivity / diameter, the spectral solver against closed-form
// eigenvalues, conductance and sweep cuts, the CSR bodies behind the
// Multigraph adapters, and the reference generators.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/bfs.h"
#include "graph/conductance.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/multigraph.h"
#include "graph/spectral.h"

namespace g = dex::graph;

TEST(Bfs, DistancesOnPath) {
  const auto p = g::make_path(5);
  const auto d = g::bfs_distances(p, 0);
  for (g::NodeId u = 0; u < 5; ++u) EXPECT_EQ(d[u], u);
  EXPECT_EQ(g::eccentricity(p, 0), 4u);
  EXPECT_EQ(g::eccentricity(p, 2), 2u);
  EXPECT_EQ(g::diameter(p), 4u);
}

TEST(Bfs, DistancesOnCycle) {
  const auto c = g::make_cycle(8);
  const auto d = g::bfs_distances(c, 0);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(d[7], 1u);
  EXPECT_EQ(g::diameter(c), 4u);
}

TEST(Bfs, AliveMaskRestrictsTraversal) {
  auto p = g::make_path(5);
  std::vector<bool> alive{true, true, false, true, true};
  const auto d = g::bfs_distances(p, 0, alive);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[3], g::kUnreached);
  EXPECT_FALSE(g::is_connected(p, alive));
  alive[2] = true;
  EXPECT_TRUE(g::is_connected(p, alive));
}

TEST(Bfs, DiameterEstimateLowerBoundsAndIsExactOnPaths) {
  const auto p = g::make_path(17);
  EXPECT_EQ(g::diameter_estimate(p), 16u);
  const auto h = g::make_hypercube(5);
  const auto est = g::diameter_estimate(h);
  EXPECT_LE(est, g::diameter(h));
  EXPECT_GE(est, 3u);
}

TEST(Spectral, CompleteGraphClosedForm) {
  // K_n normalized adjacency eigenvalues: 1 and -1/(n-1).
  for (std::size_t n : {4u, 8u, 16u}) {
    const auto k = g::make_complete(n);
    const auto s = g::spectral_gap(k);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.lambda2, -1.0 / static_cast<double>(n - 1), 1e-6) << n;
  }
}

TEST(Spectral, CycleClosedForm) {
  // C_n normalized adjacency second eigenvalue: cos(2π/n).
  for (std::size_t n : {6u, 12u, 40u}) {
    const auto c = g::make_cycle(n);
    const auto s = g::spectral_gap(c);
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.lambda2, std::cos(2.0 * M_PI / static_cast<double>(n)),
                1e-6)
        << n;
  }
}

TEST(Spectral, HypercubeClosedForm) {
  // Q_d normalized eigenvalues are 1-2k/d; second largest = 1-2/d.
  for (unsigned d : {3u, 5u}) {
    const auto h = g::make_hypercube(d);
    const auto s = g::spectral_gap(h);
    EXPECT_NEAR(s.lambda2, 1.0 - 2.0 / d, 1e-6) << d;
  }
}

TEST(Spectral, PathHasVanishingGap) {
  const auto p = g::make_path(40);
  const auto s = g::spectral_gap(p);
  EXPECT_LT(s.gap, 0.02);  // 1-cos(π/39) ≈ 0.0032
  EXPECT_GT(s.gap, 0.0);
}

TEST(Spectral, RandomRegularIsExpander) {
  dex::support::Rng rng(7);
  const auto r = g::make_random_regular(200, 6, rng);
  const auto s = g::spectral_gap(r);
  // Random 6-regular: lambda2 ≈ 2*sqrt(5)/6 ≈ 0.745 w.h.p.
  EXPECT_GT(s.gap, 0.15);
}

TEST(Spectral, SingleNodeConvention) {
  g::Multigraph one(1);
  one.add_edge(0, 0);
  const auto s = g::spectral_gap(one);
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(s.gap, 1.0);
}

TEST(Conductance, EvaluateCutOnDumbbell) {
  const auto db = g::make_dumbbell(6);
  std::vector<g::NodeId> side;
  for (g::NodeId u = 0; u < 6; ++u) side.push_back(u);
  const auto cut = g::evaluate_cut(db, side);
  EXPECT_EQ(cut.cut_edges, 1u);
  EXPECT_NEAR(cut.edge_expansion, 1.0 / 6.0, 1e-9);
}

TEST(Conductance, SweepCutFindsDumbbellBottleneck) {
  const auto db = g::make_dumbbell(8);
  const auto cut = g::sweep_cut(db);
  EXPECT_EQ(cut.cut_edges, 1u);
  EXPECT_EQ(cut.side.size(), 8u);
}

TEST(Conductance, ExactExpansionMatchesSweepOnSmallGraphs) {
  const auto db = g::make_dumbbell(5);
  const double exact = g::exact_edge_expansion(db);
  const auto sweep = g::sweep_cut(db);
  EXPECT_NEAR(exact, 0.2, 1e-9);  // 1 edge / 5 nodes
  EXPECT_GE(sweep.edge_expansion + 1e-9, exact);  // sweep upper-bounds
}

TEST(Conductance, CheegerSandwich) {
  // gap/2 <= h(G) (Theorem 2). Verify on a few graphs via the exact h.
  for (auto make : {+[] { return g::make_cycle(12); },
                    +[] { return g::make_complete(10); },
                    +[] { return g::make_dumbbell(6); }}) {
    const auto graph = make();
    const auto s = g::spectral_gap(graph);
    const double h = g::exact_edge_expansion(graph);
    // Normalized Cheeger uses conductance; edge expansion >= conductance
    // since vol(S) >= |S| (degrees >= 1). So h >= gap/2 still holds.
    EXPECT_GE(h + 1e-9, s.gap / 2.0);
  }
}

TEST(Csr, SurvivorsConnectedHonorsTheRemovedMask) {
  g::CsrView path;
  path.build(g::make_path(5), {});
  EXPECT_TRUE(g::survivors_connected(path));
  EXPECT_FALSE(g::survivors_connected(path, {false, false, true}));
  EXPECT_TRUE(g::survivors_connected(path, {true, false, false}));
  // At most one survivor is vacuously connected.
  EXPECT_TRUE(g::survivors_connected(path, {true, true, true, true}));
  EXPECT_TRUE(g::survivors_connected(path, {true, true, true, true, true}));
}

TEST(Spectral, CsrExclusionEqualsIsolatedCopyBitForBit) {
  // GreedySpectralDeletion's no-oracle path: excluding v (and any node it
  // orphans) on the CSR must give exactly the Multigraph answer with v
  // isolated and masked out.
  dex::support::Rng rng(5);
  const auto graph = g::make_random_regular(40, 4, rng);
  g::CsrView live;
  live.build(graph, {});
  const g::NodeId v = 7;
  std::vector<bool> excluded(40, false);
  excluded[v] = true;
  auto hole = graph;
  hole.isolate(v);
  std::vector<bool> mask(40, true);
  mask[v] = false;
  for (g::NodeId u = 0; u < 40; ++u) {
    if (u != v && hole.degree(u) == 0) {
      mask[u] = false;
      excluded[u] = true;
    }
  }
  const auto a = g::spectral_gap(live, excluded);
  const auto b = g::spectral_gap(hole, mask);
  EXPECT_EQ(a.lambda2, b.lambda2);
  EXPECT_EQ(a.eigenvector, b.eigenvector);
  EXPECT_EQ(a.nodes, b.nodes);
}

TEST(Spectral, RowOrderDoesNotChangeABit) {
  // The row contract promises multisets, not order (graph/csr.h): the gap,
  // its eigenvector and the sweep cut must be identical on reversed rows.
  dex::support::Rng rng(6);
  const auto graph = g::make_random_regular(48, 4, rng);
  g::CsrView forward;
  forward.build(graph, {});
  g::CsrView reversed;
  reversed.build_from_ports(std::vector<bool>(48, true),
                            [&graph](g::NodeId u, std::vector<g::NodeId>& out) {
                              const auto ports = graph.ports(u);
                              out.assign(ports.rbegin(), ports.rend());
                            });
  const auto a = g::spectral_gap(forward);
  const auto b = g::spectral_gap(reversed);
  EXPECT_EQ(a.lambda2, b.lambda2);
  EXPECT_EQ(a.eigenvector, b.eigenvector);
  EXPECT_EQ(g::sweep_cut(forward).side, g::sweep_cut(reversed).side);
}

TEST(Generators, RandomRegularDegrees) {
  dex::support::Rng rng(3);
  const auto r = g::make_random_regular(50, 4, rng);
  std::size_t total = 0;
  for (g::NodeId u = 0; u < 50; ++u) total += r.degree(u);
  // Stub pairing: self-loops count 1 port but consume 2 stubs, so the total
  // can fall slightly below n*d; never above.
  EXPECT_LE(total, 200u);
  EXPECT_GE(total, 180u);
}

TEST(Generators, HypercubeStructure) {
  const auto h = g::make_hypercube(4);
  EXPECT_EQ(h.node_count(), 16u);
  for (g::NodeId u = 0; u < 16; ++u) EXPECT_EQ(h.degree(u), 4u);
  EXPECT_TRUE(g::is_connected(h));
  EXPECT_EQ(g::diameter(h), 4u);
}
