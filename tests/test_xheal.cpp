// Xheal-with-DEX-patches (src/xheal): arbitrary graphs stay connected under
// adversarial deletions, degree overhead stays bounded, patches are genuine
// expanders, and healing costs are local (O(neighborhood)).

#include <gtest/gtest.h>

#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "support/prng.h"
#include "xheal/xheal.h"

namespace g = dex::graph;
using dex::xheal::XhealNetwork;

TEST(Xheal, HealsStarCenterDeletion) {
  // Worst case for naive healing: delete the hub of a star.
  g::Multigraph star(9);
  for (g::NodeId u = 1; u < 9; ++u) star.add_edge(0, u);
  XhealNetwork net(std::move(star));
  net.remove(0);
  EXPECT_TRUE(g::is_connected(net.graph(), net.alive_mask()));
  // Patch degrees are constant-bounded.
  for (auto u : net.alive_nodes()) {
    EXPECT_LE(net.graph().degree(u), 9u);
  }
}

TEST(Xheal, PatchIsAnExpander) {
  // Delete the hub of a big star; the 40 orphans must form an expander.
  g::Multigraph star(41);
  for (g::NodeId u = 1; u < 41; ++u) star.add_edge(0, u);
  XhealNetwork net(std::move(star));
  net.remove(0);
  const auto spec = g::spectral_gap(net.graph(), net.alive_mask());
  EXPECT_GT(spec.gap, 0.02);  // the p-cycle family floor
}

TEST(Xheal, PathSurvivesMiddleDeletions) {
  XhealNetwork net(g::make_path(20));
  for (g::NodeId v : {10u, 5u, 15u, 11u, 9u}) {
    net.remove(v);
    EXPECT_TRUE(g::is_connected(net.graph(), net.alive_mask())) << v;
  }
}

TEST(Xheal, RandomChurnOnRandomGraph) {
  dex::support::Rng gen(3);
  XhealNetwork net(g::make_random_regular(64, 4, gen));
  dex::support::Rng rng(4);
  for (int t = 0; t < 150; ++t) {
    const auto nodes = net.alive_nodes();
    if (rng.chance(0.45) && net.n() > 8) {
      net.remove(nodes[rng.below(nodes.size())]);
    } else {
      // Attach to 2 random alive nodes.
      const auto a = nodes[rng.below(nodes.size())];
      const auto b = nodes[rng.below(nodes.size())];
      net.insert({a, b});
    }
    EXPECT_TRUE(g::is_connected(net.graph(), net.alive_mask()))
        << "step " << t;
  }
}

TEST(Xheal, DegreeOverheadStaysBounded) {
  dex::support::Rng gen(5);
  XhealNetwork net(g::make_random_regular(96, 4, gen));
  dex::support::Rng rng(6);
  for (int t = 0; t < 60; ++t) {
    const auto nodes = net.alive_nodes();
    net.remove(nodes[rng.below(nodes.size())]);
  }
  // Each healing adds ≤ 9 edges per orphan, and deletions also subtract;
  // the overhead must not accumulate linearly in the deletion count.
  EXPECT_LE(net.max_degree_overhead(), 30);
}

TEST(Xheal, HealingCostIsLocal) {
  dex::support::Rng gen(7);
  XhealNetwork net(g::make_random_regular(256, 6, gen));
  dex::support::Rng rng(8);
  for (int t = 0; t < 40; ++t) {
    const auto nodes = net.alive_nodes();
    net.remove(nodes[rng.below(nodes.size())]);
    // O(neighborhood) messages, O(1) rounds — never Θ(n).
    EXPECT_LT(net.last_step().messages, 128u);
    EXPECT_LE(net.last_step().rounds, 4u);
  }
}

TEST(Xheal, InsertAddsRequestedEdges) {
  XhealNetwork net(g::make_cycle(6));
  const auto u = net.insert({0, 3});
  EXPECT_TRUE(net.alive(u));
  EXPECT_TRUE(net.graph().has_edge(u, 0));
  EXPECT_TRUE(net.graph().has_edge(u, 3));
  EXPECT_EQ(net.last_step().topology_changes, 2u);
}

TEST(Xheal, DeletingEveryOriginalNodeStillConnected) {
  // Adversary wipes the entire founding population.
  XhealNetwork net(g::make_cycle(12));
  dex::support::Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    const auto nodes = net.alive_nodes();
    net.insert({nodes[rng.below(nodes.size())],
                nodes[rng.below(nodes.size())]});
  }
  for (g::NodeId v = 0; v < 12; ++v) {
    net.remove(v);
    ASSERT_TRUE(g::is_connected(net.graph(), net.alive_mask())) << v;
  }
  EXPECT_EQ(net.n(), 12u);
}

TEST(Xheal, OverlayStartGraphIsConnected) {
  // The configuration model's first draw for this trial seed pairs node 21
  // only with itself; make_overlay must redraw before any churn.
  const auto overlay =
      dex::sim::make_overlay("xheal", 48, dex::sim::overlay_seed(58714));
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->n(), 48u);
  EXPECT_TRUE(g::is_connected(overlay->snapshot(), overlay->alive_mask()));
}
