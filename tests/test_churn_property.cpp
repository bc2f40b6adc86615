// Property sweeps (TEST_P): the paper's global invariants audited across
// random seeds × adversary mixes × recovery modes × sizes. This is the
// broadest net in the suite — anything that violates the balanced-mapping,
// degree, connectivity, or coordinator-exactness invariants dies here.

#include <gtest/gtest.h>

#include <tuple>

#include "adversary/adversary.h"
#include "dex/network.h"
#include "graph/bfs.h"
#include "graph/spectral.h"
#include "sim/scenario.h"

namespace adv = dex::adversary;

namespace {

struct Case {
  std::uint64_t seed;
  dex::RecoveryMode mode;
  double insert_prob;
  std::size_t n0;
  std::size_t steps;
};

class ChurnSweep : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(ChurnSweep, InvariantsHoldThroughout) {
  const Case c = GetParam();
  dex::Params prm;
  prm.seed = c.seed;
  prm.mode = c.mode;
  dex::sim::DexOverlay overlay(c.n0, prm);
  dex::adversary::AdversaryView view(overlay);
  const auto& net = overlay.net();
  adv::RandomChurn strat(c.insert_prob);
  dex::support::Rng rng(c.seed ^ 0x5eedULL);

  for (std::size_t t = 0; t < c.steps; ++t) {
    const auto a = strat.next(view, rng, 8, 100000);
    if (a.insert) {
      overlay.insert(a.target);
    } else {
      overlay.remove(a.target);
    }
    view.advance();
    net.check_invariants();
    if (t % 64 == 0) {
      ASSERT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()))
          << "step " << t;
    }
  }
  // Final audit: connectivity, degree cap, expansion floor.
  const auto g = net.snapshot();
  ASSERT_TRUE(dex::graph::is_connected(g, net.alive_mask()));
  const std::uint64_t degree_cap = 3 * 2 * net.params().max_load();
  for (auto u : net.alive_nodes()) EXPECT_LE(g.degree(u), degree_cap);
  const auto spec = dex::graph::spectral_gap(g, net.alive_mask());
  EXPECT_GT(spec.gap, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsModesAndMixes, ChurnSweep,
    ::testing::Values(
        Case{1, dex::RecoveryMode::WorstCase, 0.50, 16, 600},
        Case{2, dex::RecoveryMode::WorstCase, 0.80, 16, 900},
        Case{3, dex::RecoveryMode::WorstCase, 0.20, 128, 700},
        Case{4, dex::RecoveryMode::WorstCase, 0.65, 48, 900},
        Case{5, dex::RecoveryMode::Amortized, 0.50, 16, 600},
        Case{6, dex::RecoveryMode::Amortized, 0.85, 16, 900},
        Case{7, dex::RecoveryMode::Amortized, 0.25, 128, 700},
        Case{8, dex::RecoveryMode::Amortized, 0.60, 48, 900},
        Case{9, dex::RecoveryMode::WorstCase, 0.95, 8, 1200},
        Case{10, dex::RecoveryMode::Amortized, 0.95, 8, 1200}),
    [](const ::testing::TestParamInfo<Case>& pinfo) {
      const Case& c = pinfo.param;
      std::string name = c.mode == dex::RecoveryMode::WorstCase ? "WC" : "AM";
      name += "_seed" + std::to_string(c.seed) + "_p" +
              std::to_string(static_cast<int>(c.insert_prob * 100)) + "_n" +
              std::to_string(c.n0);
      return name;
    });

// Walk-length stress: small walk factors force retries; the machinery must
// still converge (Lemma 2's w.h.p. bound shows failures are survivable).
TEST(ChurnEdge, ShortWalksStillConverge) {
  dex::Params prm;
  prm.seed = 77;
  prm.walk_factor = 1.0;  // aggressive: walks often miss
  prm.max_walk_retries = 256;
  dex::DexNetwork net(32, prm);
  dex::support::Rng rng(1);
  for (int t = 0; t < 400; ++t) {
    const auto nodes = net.alive_nodes();
    if (rng.chance(0.5)) {
      net.insert(nodes[rng.below(nodes.size())]);
    } else if (net.n() > 8) {
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  net.check_invariants();
}

// Paper-faithful θ: the proof constant 1/545 makes thresholds unreachable at
// test sizes, so no type-2 should ever trigger and type-1 must cope alone.
TEST(ChurnEdge, PaperThetaNeverTriggersType2AtSmallScale) {
  dex::Params prm;
  prm.seed = 78;
  prm.theta = 1.0 / 545.0;
  dex::DexNetwork net(64, prm);
  dex::support::Rng rng(2);
  for (int t = 0; t < 500; ++t) {
    const auto nodes = net.alive_nodes();
    if (rng.chance(0.4) && net.n() > 32) {
      net.remove(nodes[rng.below(nodes.size())]);
    } else {
      net.insert(nodes[rng.below(nodes.size())]);
    }
  }
  net.check_invariants();
  EXPECT_EQ(net.inflation_count() + net.deflation_count() +
                net.forced_sync_type2(),
            0u);
}

// Determinism: identical seeds → identical trajectories (costs included).
TEST(ChurnEdge, FullyDeterministic) {
  auto run = [] {
    dex::Params prm;
    prm.seed = 123;
    dex::DexNetwork net(24, prm);
    dex::support::Rng rng(9);
    std::uint64_t digest = 0;
    for (int t = 0; t < 300; ++t) {
      const auto nodes = net.alive_nodes();
      if (rng.chance(0.6)) {
        net.insert(nodes[rng.below(nodes.size())]);
      } else if (net.n() > 8) {
        net.remove(nodes[rng.below(nodes.size())]);
      }
      digest = digest * 1000003 + net.last_report().cost.messages;
      digest = digest * 1000003 + net.n();
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}
