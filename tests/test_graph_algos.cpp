// BFS / connectivity / diameter, the spectral solver against closed-form
// eigenvalues, conductance and sweep cuts, the CSR bodies behind the
// Multigraph adapters, and the reference generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/conductance.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/multigraph.h"
#include "graph/spectral.h"
#include "support/prng.h"

namespace g = dex::graph;

namespace {

std::vector<g::NodeId> ids(std::initializer_list<g::NodeId> list) {
  return list;
}

/// A Multigraph plus the CsrView patched from it through apply_delta, the
/// way the run loop maintains its view from an overlay's journal.
struct PatchableGraph {
  explicit PatchableGraph(g::Multigraph start)
      : graph(std::move(start)), alive(graph.node_count(), true) {
    rebuild();
  }

  void rebuild() {
    alive.resize(graph.node_count(), true);
    view.build_from_ports(alive, ports());
  }
  /// A newcomer with edges to `targets`.
  void attach(std::initializer_list<g::NodeId> targets) {
    g::ViewDelta d;
    const g::NodeId u = graph.add_node();
    alive.push_back(true);
    d.born.push_back(u);
    for (const g::NodeId t : targets) {
      graph.add_edge(u, t);
      d.dirty.push_back(t);
    }
    view.apply_delta(d, ports());
  }
  void cut(g::NodeId u, g::NodeId v) {
    ASSERT_TRUE(graph.remove_edge(u, v));
    g::ViewDelta d;
    d.dirty = {u, v};
    view.apply_delta(d, ports());
  }
  void kill(g::NodeId u) {
    alive[u] = false;
    g::ViewDelta d;
    d.died.push_back(u);
    view.apply_delta(d, ports());
  }
  [[nodiscard]] g::CsrView::PortsFn ports() const {
    return [this](g::NodeId u, std::vector<g::NodeId>& out) {
      for (const g::NodeId v : graph.ports(u)) {
        if (alive[v]) out.push_back(v);
      }
    };
  }

  g::Multigraph graph;
  std::vector<bool> alive;
  g::CsrView view;
};

}  // namespace

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

// csr_bfs_fill against the Multigraph BFS on a path, two components, dead
// nodes, self-loops and multi-edges, with node counts that are not a
// multiple of 64. Every case goes through one scratch queue, so a queue one
// call left behind would show up in a later call's distances.
TEST(Csr, BfsFillMatchesMultigraphBfs) {
  std::vector<g::NodeId> scratch;
  std::vector<std::uint32_t> dist;
  const auto check = [&](const g::Multigraph& graph,
                         const std::vector<bool>& alive, g::NodeId src) {
    g::CsrView view;
    view.build(graph, alive);
    g::csr_bfs_fill(view, src, dist, scratch);
    if (alive.empty() || alive[src]) {
      EXPECT_EQ(dist, g::bfs_distances(graph, src, alive)) << "src " << src;
    } else {
      // bfs_distances refuses a dead source; the fill reaches nothing.
      EXPECT_EQ(dist, std::vector<std::uint32_t>(graph.node_count(),
                                                 g::kUnreached));
    }
  };
  // A path of 130 nodes (not a multiple of 64): levels of one node that
  // walk across word boundaries, from an end and from the middle.
  const auto path = g::make_path(130);
  for (const g::NodeId src : {0u, 63u, 64u, 65u, 129u}) check(path, {}, src);
  // Two components: a 5-cycle and a 70-node path.
  g::Multigraph two(75);
  for (g::NodeId u = 0; u < 5; ++u) two.add_edge(u, (u + 1) % 5);
  for (g::NodeId u = 5; u + 1 < 75; ++u) two.add_edge(u, u + 1);
  for (const g::NodeId src : {0u, 4u, 5u, 40u, 74u}) check(two, {}, src);
  // A dead source, and a dead node cutting the path in two.
  std::vector<bool> alive(130, true);
  alive[64] = false;
  check(path, alive, 64);
  check(path, alive, 0);
  check(path, alive, 100);
  // Self-loops and multi-edges on a random expander of 200 nodes.
  dex::support::Rng rng(11);
  auto multi = g::make_random_regular(200, 4, rng);
  for (g::NodeId u = 0; u < 200; u += 7) {
    multi.add_edge(u, u);
    multi.add_edge(u, (u + 1) % 200);
    multi.add_edge(u, (u + 1) % 200);
  }
  for (const g::NodeId src : {0u, 7u, 99u, 199u}) check(multi, {}, src);
}

TEST(Csr, SurvivorsConnectedHonorsTheRemovedIds) {
  g::CsrView path;
  path.build(g::make_path(5), {});
  EXPECT_TRUE(g::survivors_connected(path));
  EXPECT_FALSE(g::survivors_connected(path, ids({2})));
  EXPECT_TRUE(g::survivors_connected(path, ids({0})));
  // At most one survivor is vacuously connected.
  EXPECT_TRUE(g::survivors_connected(path, ids({0, 1, 2, 3})));
  EXPECT_TRUE(g::survivors_connected(path, ids({0, 1, 2, 3, 4})));
}

// Removal sets that disconnect, each asked of a freshly built view (full
// BFS) and of a view that was certified connected and then patched
// (local check from the pending rows and the removed ids' neighbors).
TEST(Csr, DisconnectingRemovalsOnBuiltAndCertifiedViews) {
  // Barbell: cliques {0..3} and {5..8} hung off the bridge node 4.
  g::Multigraph barbell(9);
  for (g::NodeId u = 0; u < 4; ++u) {
    for (g::NodeId v = u + 1; v < 4; ++v) {
      barbell.add_edge(u, v);
      barbell.add_edge(u + 5, v + 5);
    }
  }
  barbell.add_edge(3, 4);
  barbell.add_edge(4, 5);
  g::Multigraph star(7);
  for (g::NodeId leaf = 1; leaf < 7; ++leaf) star.add_edge(0, leaf);
  // A cloud {c, c's first neighbor} cut off by removing its boundary.
  dex::support::Rng rng(17);
  const auto expander = g::make_random_regular(60, 4, rng);
  const g::NodeId c = 11;
  const g::NodeId c2 = expander.ports(c)[0];
  std::vector<g::NodeId> boundary;
  for (const g::NodeId u : {c, c2}) {
    for (const g::NodeId w : expander.ports(u)) {
      if (w != c && w != c2 &&
          std::find(boundary.begin(), boundary.end(), w) == boundary.end()) {
        boundary.push_back(w);
      }
    }
  }

  struct Case {
    const char* name;
    g::Multigraph graph;
    std::vector<g::NodeId> removed;
  };
  const Case cases[] = {{"path interior", g::make_path(7), {3}},
                        {"barbell bridge", barbell, {4}},
                        {"star center", star, {0}},
                        {"cloud boundary", expander, boundary}};
  for (const auto& tc : cases) {
    PatchableGraph built(tc.graph);
    EXPECT_FALSE(g::survivors_connected(built.view, tc.removed)) << tc.name;
    EXPECT_FALSE(built.view.certified()) << tc.name;

    PatchableGraph patched(tc.graph);
    ASSERT_TRUE(g::survivors_connected(patched.view)) << tc.name;
    ASSERT_TRUE(patched.view.certified()) << tc.name;
    // A newcomer attached to the first node the case keeps.
    g::NodeId target = 0;
    while (std::find(tc.removed.begin(), tc.removed.end(), target) !=
           tc.removed.end()) {
      ++target;
    }
    patched.attach({target});
    ASSERT_TRUE(patched.view.certified()) << tc.name;
    EXPECT_FALSE(g::survivors_connected(patched.view, tc.removed)) << tc.name;
    EXPECT_TRUE(patched.view.certified()) << tc.name;
    EXPECT_TRUE(g::survivors_connected(patched.view)) << tc.name;
  }
}

// A patch that itself disconnects a certified view: the certificate only
// covers the graph it was taken on, so the rewritten rows must be sources.
// Without them the lone anchor would answer "connected".
TEST(Csr, PatchThatDisconnectsACertifiedViewIsSeen) {
  {
    PatchableGraph p(g::make_path(5));
    ASSERT_TRUE(g::survivors_connected(p.view));
    p.cut(2, 3);
    ASSERT_TRUE(p.view.certified());
    EXPECT_FALSE(g::survivors_connected(p.view));
    EXPECT_FALSE(g::survivors_connected(p.view, ids({0})));
    EXPECT_TRUE(g::survivors_connected(p.view, ids({3, 4})));
  }
  {
    PatchableGraph p(g::make_path(5));
    ASSERT_TRUE(g::survivors_connected(p.view));
    p.kill(2);
    ASSERT_TRUE(p.view.certified());
    EXPECT_FALSE(g::survivors_connected(p.view));
    EXPECT_FALSE(g::survivors_connected(p.view, ids({4})));
    EXPECT_TRUE(g::survivors_connected(p.view, ids({0, 1})));
  }
  {
    // A newcomer with no edge to the old graph.
    PatchableGraph p(g::make_cycle(6));
    ASSERT_TRUE(g::survivors_connected(p.view));
    p.attach({});
    ASSERT_TRUE(p.view.certified());
    EXPECT_FALSE(g::survivors_connected(p.view));
  }
}

// A rebuild replaces the graph, so it must drop the certificate.
TEST(Csr, BuildDropsTheCertificate) {
  g::Multigraph halves(4);
  halves.add_edge(0, 1);
  halves.add_edge(2, 3);
  g::CsrView view;
  view.build(g::make_path(4), {});
  ASSERT_TRUE(g::survivors_connected(view));
  ASSERT_TRUE(view.certified());
  view.build(halves, {});
  EXPECT_FALSE(view.certified());
  EXPECT_FALSE(g::survivors_connected(view));

  PatchableGraph p(g::make_path(4));
  ASSERT_TRUE(g::survivors_connected(p.view));
  p.graph = halves;
  p.rebuild();
  EXPECT_FALSE(p.view.certified());
  EXPECT_FALSE(g::survivors_connected(p.view));
}

// A true answer certifies only when every removed node keeps a surviving
// neighbor: here node 3 is isolated, so the view itself is not connected.
TEST(Csr, UnattachedRemovalDoesNotCertify) {
  g::Multigraph graph = g::make_path(3);
  graph.add_node();
  g::CsrView view;
  view.build(graph, {});
  EXPECT_TRUE(g::survivors_connected(view, ids({3})));
  EXPECT_FALSE(view.certified());
  EXPECT_FALSE(g::survivors_connected(view));
}

// Rewriting more rows than there are alive nodes drops the certificate.
TEST(Csr, CertificateDropsOncePendingOutgrowsTheView) {
  PatchableGraph p(g::make_cycle(8));
  ASSERT_TRUE(g::survivors_connected(p.view));
  p.cut(0, 1);
  p.cut(2, 3);
  p.cut(4, 5);
  p.cut(6, 7);
  ASSERT_TRUE(p.view.certified());  // 8 pending rows, 8 alive nodes
  p.cut(1, 2);
  EXPECT_FALSE(p.view.certified());
  EXPECT_FALSE(g::survivors_connected(p.view));
}

// The remembered answer covers one view: a patch that disconnects (or
// reconnects) it must be seen by the very query answered before it.
TEST(Csr, RememberedAnswerDiesWithThePatch) {
  PatchableGraph p(g::make_path(5));
  ASSERT_TRUE(g::survivors_connected(p.view, ids({0})));
  p.cut(2, 3);
  EXPECT_FALSE(g::survivors_connected(p.view, ids({0})));

  PatchableGraph q(g::make_path(4));
  ASSERT_FALSE(g::survivors_connected(q.view, ids({1})));
  q.attach({0, 2});  // a newcomer bridges the gap node 1 leaves
  EXPECT_TRUE(g::survivors_connected(q.view, ids({1})));

  PatchableGraph r(g::make_cycle(6));
  ASSERT_TRUE(g::survivors_connected(r.view, ids({2})));
  r.kill(5);
  EXPECT_FALSE(g::survivors_connected(r.view, ids({2})));
}

// On an unchanged view only the very same removed list, in the same order,
// is answered from memory; a prefix, an extension or another id is asked
// afresh.
TEST(Csr, RememberedAnswerKeysOnTheRemovedList) {
  PatchableGraph p(g::make_path(5));
  EXPECT_FALSE(g::survivors_connected(p.view, ids({2})));
  EXPECT_TRUE(g::survivors_connected(p.view, ids({0})));
  EXPECT_FALSE(g::survivors_connected(p.view, ids({0, 2})));
  EXPECT_TRUE(g::survivors_connected(p.view, ids({0})));
  EXPECT_TRUE(g::survivors_connected(p.view, ids({0, 1})));
  EXPECT_FALSE(g::survivors_connected(p.view, ids({0, 1, 3})));
  EXPECT_TRUE(g::survivors_connected(p.view));
  EXPECT_FALSE(g::survivors_connected(p.view, ids({2})));
  EXPECT_FALSE(g::survivors_connected(p.view, ids({2})));
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
