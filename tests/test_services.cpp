// Overlay services: sampling uniformity (services.h, the intro's "quickly
// sample a random node"), flood reach over the healed topology, and the
// point-to-point p-cycle route the traffic layer serves through
// (sim::DexOverlay::route).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "dex/services.h"
#include "graph/bfs.h"
#include "graph/csr.h"
#include "sim/overlay.h"
#include "support/prng.h"

using dex::DexNetwork;
using dex::Params;

TEST(Services, SampleReturnsAliveNode) {
  Params prm;
  prm.seed = 5;
  DexNetwork net(64, prm);
  for (int i = 0; i < 50; ++i) {
    const auto s = dex::sample_node(net, 0);
    EXPECT_TRUE(net.alive(s.node));
    EXPECT_GT(s.cost.messages, 0u);
  }
}

TEST(Services, SampleCostIsLogarithmic) {
  Params prm;
  prm.seed = 6;
  DexNetwork net(1024, prm);
  const double len = net.params().walk_factor * std::log(1024.0);
  double total = 0;
  double worst = 0;
  for (int i = 0; i < 60; ++i) {
    const auto s = dex::sample_node(net, 3);
    total += static_cast<double>(s.cost.messages);
    worst = std::max(worst, static_cast<double>(s.cost.messages));
  }
  // Expected cost: one full walk + ~load/4 short retries ≈ 3·len; the
  // geometric tail stays within the 64-attempt cap.
  EXPECT_LT(total / 60.0, 5.0 * len);
  EXPECT_LT(worst, 20.0 * len);
}

TEST(Services, SampleIsNearUniform) {
  // Chi-squared-flavoured check: over many samples from a fixed origin, no
  // node is wildly over- or under-represented.
  Params prm;
  prm.seed = 7;
  DexNetwork net(32, prm);
  std::map<dex::NodeId, std::size_t> counts;
  const std::size_t kSamples = 6400;
  for (std::size_t i = 0; i < kSamples; ++i) {
    ++counts[dex::sample_node(net, 0).node];
  }
  const double expect = static_cast<double>(kSamples) / 32.0;  // 200
  for (const auto& [node, c] : counts) {
    EXPECT_GT(static_cast<double>(c), 0.4 * expect) << "node " << node;
    EXPECT_LT(static_cast<double>(c), 2.0 * expect) << "node " << node;
  }
  EXPECT_EQ(counts.size(), 32u);  // every node hit at least once
}

TEST(Services, FloodReachesEveryone) {
  Params prm;
  prm.seed = 8;
  DexNetwork net(128, prm);
  dex::support::Rng rng(1);
  for (int t = 0; t < 60; ++t) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
  }
  const auto g = net.snapshot();
  const auto mask = net.alive_mask();
  EXPECT_TRUE(dex::graph::is_connected(g, mask));
  // Expander: flood rounds = eccentricity = O(log n).
  EXPECT_LT(dex::graph::eccentricity(g, net.alive_nodes().front(), mask),
            4 * std::log2(static_cast<double>(net.p())));
}

TEST(Services, RouteDeliversWithLogHops) {
  Params prm;
  prm.seed = 9;
  dex::sim::DexOverlay overlay(512, prm);
  dex::graph::CsrView live;
  live.build(overlay.snapshot(), overlay.alive_mask());
  dex::support::Rng rng(2);
  const auto nodes = overlay.alive_nodes();
  const double limit = 3.0 * std::log2(static_cast<double>(overlay.net().p()));
  for (int i = 0; i < 60; ++i) {
    const auto a = nodes[rng.below(nodes.size())];
    const auto b = nodes[rng.below(nodes.size())];
    const auto path = overlay.route(a, b, live);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    // Every hop is a materialized real edge.
    for (std::size_t h = 1; h < path.size(); ++h) {
      const auto nbrs = live.neighbors(path[h - 1]);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), path[h]), nbrs.end());
    }
    EXPECT_LE(static_cast<double>(path.size() - 1), limit);
  }
}

TEST(Services, RouteToSelfIsFree) {
  Params prm;
  prm.seed = 10;
  dex::sim::DexOverlay overlay(16, prm);
  dex::graph::CsrView live;
  live.build(overlay.snapshot(), overlay.alive_mask());
  EXPECT_EQ(overlay.route(3, 3, live), std::vector<dex::NodeId>{3});
}

TEST(Services, ServicesSurviveChurnAndRebuilds) {
  Params prm;
  prm.seed = 11;
  prm.mode = dex::RecoveryMode::WorstCase;
  DexNetwork net(32, prm);
  dex::support::Rng rng(3);
  for (int t = 0; t < 600; ++t) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
    if (t % 25 == 0) {
      const auto s = dex::sample_node(net, nodes[0]);
      EXPECT_TRUE(net.alive(s.node));
      EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
    }
  }
  ASSERT_GE(net.inflation_count(), 1u);  // services crossed a rebuild
}
