// Worst-case (staggered) type-2 recovery — Algorithms 4.7–4.9 and Lemma 9.
// Drives the network across inflation and deflation boundaries with churn
// *during* the staggered phases, auditing invariants at every step:
// connectivity, bounded loads (≤ 8ζ total mid-rebuild), coordinator counter
// exactness, per-step costs that never spike to Θ(n), and live_ports rows
// that match the snapshot inside every rebuild window.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dex/network.h"
#include "graph/bfs.h"
#include "graph/spectral.h"
#include "support/prng.h"

using dex::DexNetwork;
using dex::NodeId;
using dex::Params;

namespace {

Params worst_case(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  p.mode = dex::RecoveryMode::WorstCase;
  return p;
}

/// graph/csr.h's row contract inside a window: each alive node's live_ports
/// row, sorted, equals its sorted masked snapshot row. In Phase 1 that needs
/// the reverse ports of its unprocessed future vertices, claims included.
void expect_rows_match_snapshot(const DexNetwork& net) {
  if (!net.staggered_active()) return;
  const auto g = net.snapshot();
  const auto mask = net.alive_mask();
  std::vector<NodeId> want;
  std::vector<NodeId> got;
  for (NodeId u = 0; u < mask.size(); ++u) {
    if (!mask[u]) continue;
    want.clear();
    for (NodeId v : g.ports(u)) {
      if (mask[v]) want.push_back(v);
    }
    ASSERT_TRUE(net.live_ports(u, got));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "node " << u;
  }
}

/// Insert until at least one inflation has started and completed.
void drive_through_inflation(DexNetwork& net, dex::support::Rng& rng,
                             std::size_t max_steps = 20000) {
  const auto target = net.inflation_count() + 1;
  std::size_t steps = 0;
  while ((net.inflation_count() < target || net.staggered_active()) &&
         steps++ < max_steps) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
    net.check_invariants();
    expect_rows_match_snapshot(net);
  }
  ASSERT_LT(steps, max_steps) << "inflation never completed";
}

void drive_through_deflation(DexNetwork& net, dex::support::Rng& rng,
                             std::size_t max_steps = 30000) {
  const auto target = net.deflation_count() + 1;
  std::size_t steps = 0;
  while ((net.deflation_count() < target || net.staggered_active()) &&
         steps++ < max_steps) {
    const auto nodes = net.alive_nodes();
    if (net.n() > 8) {
      net.remove(nodes[rng.below(nodes.size())]);
    } else {
      net.insert(nodes[rng.below(nodes.size())]);
    }
    net.check_invariants();
    expect_rows_match_snapshot(net);
  }
  ASSERT_LT(steps, max_steps) << "deflation never completed";
}

}  // namespace

TEST(Staggered, InflationCompletesUnderInsertOnlyChurn) {
  DexNetwork net(32, worst_case(21));
  dex::support::Rng rng(99);
  drive_through_inflation(net, rng);
  EXPECT_GE(net.inflation_count(), 1u);
  EXPECT_EQ(net.forced_sync_type2(), 0u);
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
}

TEST(Staggered, DeflationCompletesUnderDeleteOnlyChurn) {
  DexNetwork net(32, worst_case(22));
  dex::support::Rng rng(100);
  // Grow first so there is room to shrink.
  drive_through_inflation(net, rng);
  drive_through_deflation(net, rng);
  EXPECT_GE(net.deflation_count(), 1u);
  EXPECT_EQ(net.forced_sync_type2(), 0u);
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
}

TEST(Staggered, ConnectivityHoldsDuringEveryRebuildStep) {
  DexNetwork net(32, worst_case(23));
  dex::support::Rng rng(101);
  std::size_t staggered_steps_seen = 0;
  for (std::size_t t = 0; t < 3000; ++t) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
    if (net.staggered_active()) {
      ++staggered_steps_seen;
      EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()))
          << "disconnected mid-rebuild at step " << t;
    }
  }
  EXPECT_GT(staggered_steps_seen, 0u) << "test never exercised a rebuild";
}

TEST(Staggered, PerStepCostsStayLogarithmicDuringRebuild) {
  DexNetwork net(64, worst_case(24));
  dex::support::Rng rng(102);
  std::uint64_t worst_messages = 0;
  for (std::size_t t = 0; t < 4000; ++t) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
    worst_messages =
        std::max(worst_messages, net.last_report().cost.messages);
  }
  ASSERT_GE(net.inflation_count(), 1u);
  // Θ(n) would be > 3n messages in a simplified rebuild step; the staggered
  // path must stay well under that (O((1/θ)·log n) per step).
  EXPECT_LT(worst_messages, net.n())
      << "a staggered step cost Θ(n) messages";
}

TEST(Staggered, MixedChurnDuringInflationKeepsInvariants) {
  DexNetwork net(48, worst_case(25));
  dex::support::Rng rng(103);
  // Push to the brink of inflation.
  while (net.inflation_count() == 0) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
  }
  // Now mix deletes and inserts while the rebuild is in flight.
  std::size_t mixed = 0;
  while (net.staggered_active() && mixed < 20000) {
    const auto nodes = net.alive_nodes();
    if (rng.chance(0.4) && net.n() > 16) {
      net.remove(nodes[rng.below(nodes.size())]);
    } else {
      net.insert(nodes[rng.below(nodes.size())]);
    }
    net.check_invariants();
    expect_rows_match_snapshot(net);
    ++mixed;
  }
  EXPECT_FALSE(net.staggered_active());
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), net.alive_mask()));
}

TEST(Staggered, LiveRowsMatchSnapshotUnderInsertsDuringDeflation) {
  // At n ≈ 300 a phase spans several steps, so newcomers arrive mid-build;
  // a newcomer without a future vertex claims one (Algorithm 4.9 line 4),
  // and its live_ports row must then carry that claim's reverse ports.
  DexNetwork net(300, worst_case(32));
  dex::support::Rng rng(110);
  drive_through_inflation(net, rng);
  const auto target = net.deflation_count() + 1;
  for (int t = 0; t < 20000 && (net.deflation_count() < target ||
                                net.staggered_active());
       ++t) {
    const auto nodes = net.alive_nodes();
    const double insert_prob = net.staggered_active() ? 0.7 : 0.05;
    if (rng.chance(insert_prob)) {
      net.insert(nodes[rng.below(nodes.size())]);
    } else {
      net.remove(nodes[rng.below(nodes.size())]);
    }
    net.check_invariants();
    expect_rows_match_snapshot(net);
  }
  EXPECT_EQ(net.deflation_count(), target);
  EXPECT_FALSE(net.staggered_active());
}

TEST(Staggered, CoordinatorDeletionDuringRebuild) {
  DexNetwork net(48, worst_case(26));
  dex::support::Rng rng(104);
  while (net.inflation_count() == 0) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
  }
  // Kill the coordinator repeatedly while the rebuild is staggering.
  int kills = 0;
  while (net.staggered_active() && kills < 25) {
    net.remove(net.coordinator());
    net.insert(net.alive_nodes().front());
    net.check_invariants();
    expect_rows_match_snapshot(net);
    ++kills;
  }
  EXPECT_GT(kills, 0);
  EXPECT_EQ(net.coordinator(), net.mapping().owner(0));
}

TEST(Staggered, GapNeverCollapsesAcrossRebuild) {
  DexNetwork net(32, worst_case(27));
  dex::support::Rng rng(105);
  double min_gap = 1.0;
  for (std::size_t t = 0; t < 2500; ++t) {
    const auto nodes = net.alive_nodes();
    net.insert(nodes[rng.below(nodes.size())]);
    if (t % 25 == 0 || net.staggered_active()) {
      const auto spec =
          dex::graph::spectral_gap(net.snapshot(), net.alive_mask());
      min_gap = std::min(min_gap, spec.gap);
    }
  }
  ASSERT_GE(net.inflation_count(), 1u);
  // Lemma 9(b): at worst (1-λ)²/8 of the family constant. Our floor is the
  // empirical family gap (~0.025) squared over 8 ≈ 8e-5; in practice the
  // contracted network stays far above 0.01.
  EXPECT_GT(min_gap, 0.01);
}

TEST(Staggered, EpochCounterBumpsOnSwap) {
  DexNetwork net(32, worst_case(28));
  dex::support::Rng rng(106);
  const auto before = net.cycle_epoch();
  drive_through_inflation(net, rng);
  EXPECT_EQ(net.cycle_epoch(), before + 1);
}

TEST(Staggered, InflationGrowsPWithinBertrandRange) {
  DexNetwork net(32, worst_case(29));
  dex::support::Rng rng(107);
  const auto p_before = net.p();
  drive_through_inflation(net, rng);
  EXPECT_GT(net.p(), 4 * p_before);
  EXPECT_LT(net.p(), 8 * p_before);
}

TEST(Staggered, DeflationShrinksPWithinRange) {
  DexNetwork net(32, worst_case(30));
  dex::support::Rng rng(108);
  drive_through_inflation(net, rng);
  const auto p_before = net.p();
  drive_through_deflation(net, rng);
  EXPECT_GT(net.p(), p_before / 8);
  EXPECT_LT(net.p(), p_before / 4);
}

TEST(Staggered, BackToBackCyclesSurvive) {
  // Oscillate across both thresholds twice; Lemma 8 says rebuilds must be
  // separated by Ω(n) steps — verify they are and that nothing breaks.
  DexNetwork net(32, worst_case(31));
  dex::support::Rng rng(109);
  for (int cycle = 0; cycle < 2; ++cycle) {
    drive_through_inflation(net, rng);
    drive_through_deflation(net, rng);
  }
  EXPECT_GE(net.inflation_count(), 2u);
  EXPECT_GE(net.deflation_count(), 2u);
  EXPECT_EQ(net.forced_sync_type2(), 0u);
  net.check_invariants();
}
