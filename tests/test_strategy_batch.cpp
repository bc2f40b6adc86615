// Strategy::next_batch edge cases: the default wrapper's self-consistency
// guarantees (distinct alive victims, surviving attach points, population
// projected into [min_n, max_n]), Scripted exhaustion, and the
// CampaignStrategy batch semantics (quiet steps and rate gates as *empty*
// batches, replay tolerance of stale targets).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/campaign.h"
#include "sim/churn.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "support/prng.h"

namespace dex {
namespace {

using adversary::AdversaryView;
using adversary::ChurnAction;
using sim::ChurnBatch;

std::unique_ptr<sim::HealingOverlay> overlay(std::size_t n0,
                                             std::uint64_t seed = 7) {
  return sim::make_overlay("flood", n0, sim::overlay_seed(seed));
}

/// The CampaignStrategy for a campaign string that must parse.
std::unique_ptr<adversary::Strategy> campaign_strategy(
    const std::string& text) {
  return sim::make_campaign_strategy(sim::parse_campaign_spec(text).value());
}

/// The default wrapper's documented contract, checked against a live view.
void expect_self_consistent(const ChurnBatch& batch,
                            const sim::HealingOverlay& net, std::size_t min_n,
                            std::size_t max_n) {
  const auto mask = net.alive_mask();
  std::set<graph::NodeId> victims(batch.victims.begin(), batch.victims.end());
  EXPECT_EQ(victims.size(), batch.victims.size()) << "duplicate victims";
  for (const auto v : batch.victims) {
    ASSERT_LT(v, mask.size());
    EXPECT_TRUE(mask[v]) << "victim " << v << " is not alive";
  }
  for (const auto a : batch.attach_to) {
    ASSERT_LT(a, mask.size());
    EXPECT_TRUE(mask[a]) << "attach point " << a << " is not alive";
    EXPECT_EQ(victims.count(a), 0u) << "attach point " << a << " is dying";
  }
  EXPECT_GE(net.n() - batch.victims.size(), min_n);
  EXPECT_LE(net.n() + batch.attach_to.size(), max_n);
}

TEST(StrategyBatch, DefaultWrapperDedupsAndStaysSelfConsistent) {
  auto net = overlay(32);
  adversary::AdversaryView view(*net);
  adversary::RandomChurn churn(0.5);
  support::Rng rng(11);
  for (int step = 0; step < 16; ++step) {
    const ChurnBatch batch = churn.next_batch(view, rng, 8, 128, 8);
    expect_self_consistent(batch, *net, 8, 128);
    (void)net->apply(batch);
    view.advance();
  }
}

TEST(StrategyBatch, DefaultWrapperProjectsAgainstThePopulationFloor) {
  auto net = overlay(16);
  adversary::AdversaryView view(*net);
  adversary::DeleteOnly deletes;
  support::Rng rng(3);
  // Only two deletions fit above min_n = 14; a batch of 8 must not take
  // more, however the strategy fills the rest.
  const ChurnBatch batch = deletes.next_batch(view, rng, 14, 1u << 20, 8);
  EXPECT_LE(batch.victims.size(), 2u);
  expect_self_consistent(batch, *net, 14, 1u << 20);
  // At the floor itself no deletion is admissible at all.
  const ChurnBatch floor = deletes.next_batch(view, rng, net->n(), 1u << 20, 8);
  EXPECT_TRUE(floor.victims.empty());
}

TEST(StrategyBatch, DefaultWrapperProjectsAgainstThePopulationCeiling) {
  auto net = overlay(16);
  adversary::AdversaryView view(*net);
  adversary::RandomChurn inserts(1.0);  // insert with probability 1
  support::Rng rng(5);
  const std::size_t max_n = net->n() + 2;
  const ChurnBatch batch = inserts.next_batch(view, rng, 4, max_n, 8);
  EXPECT_LE(batch.attach_to.size(), 2u);
  expect_self_consistent(batch, *net, 4, max_n);
}

TEST(StrategyBatch, ScriptedReplaysInOrderThenAborts) {
  auto net = overlay(16);
  adversary::AdversaryView view(*net);
  support::Rng rng(1);
  const auto alive = net->alive_nodes();
  adversary::Scripted scripted({{true, alive[0]},
                                {false, alive[1]},
                                {true, alive[2]},
                                {false, alive[3]}});
  EXPECT_EQ(scripted.remaining(), 4u);
  const ChurnBatch first = scripted.next_batch(view, rng, 3, 1u << 20, 3);
  ASSERT_EQ(first.attach_to.size(), 2u);
  ASSERT_EQ(first.victims.size(), 1u);
  EXPECT_EQ(first.attach_to[0], alive[0]);
  EXPECT_EQ(first.victims[0], alive[1]);
  EXPECT_EQ(first.attach_to[1], alive[2]);
  EXPECT_EQ(scripted.remaining(), 1u);
  const ChurnBatch second = scripted.next_batch(view, rng, 3, 1u << 20, 1);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(scripted.remaining(), 0u);
  // Asking for more steps than were scripted is a harness bug, not a
  // workload: the strategy aborts rather than inventing churn.
  EXPECT_DEATH(scripted.next_batch(view, rng, 3, 1u << 20, 1), "exhausted");
}

TEST(StrategyBatch, CampaignQuietStepsAreEmptyBatches) {
  auto net = overlay(24);
  adversary::AdversaryView view(*net);
  support::Rng rng(9);
  // Active [0,2), quiet gap [2,4), insert-only [4,6), then past all phases.
  auto strategy = campaign_strategy("churn:0-2;insert-only:4-6");
  for (std::size_t step = 0; step < 8; ++step) {
    const ChurnBatch batch = strategy->next_batch(view, rng, 8, 128, 4);
    const bool quiet = (step >= 2 && step < 4) || step >= 6;
    if (quiet) {
      EXPECT_TRUE(batch.empty()) << "step " << step << " should be quiet";
    } else if (step >= 4) {
      EXPECT_FALSE(batch.empty()) << "step " << step;
      EXPECT_TRUE(batch.victims.empty()) << "insert-only phase deleted";
    }
  }
}

TEST(StrategyBatch, CampaignRateGateScalesTheBatchBudget) {
  auto net = overlay(32);
  adversary::AdversaryView view(*net);
  support::Rng rng(13);
  auto strategy = campaign_strategy("churn:0-,rate=0.5");
  std::size_t total = 0;
  for (std::size_t step = 0; step < 8; ++step) {
    const ChurnBatch batch = strategy->next_batch(view, rng, 8, 256, 4);
    EXPECT_LE(batch.size(), 2u) << "rate=0.5 of batch 4 spends at most 2";
    total += batch.size();
  }
  EXPECT_GT(total, 0u);
  // rate=0 gates every batch to empty, deterministically.
  auto gated = campaign_strategy("churn:0-,rate=0");
  for (std::size_t step = 0; step < 4; ++step) {
    EXPECT_TRUE(gated->next_batch(view, rng, 8, 256, 4).empty());
  }
}

TEST(StrategyBatch, CampaignBatchesAreDeterministicPerSeed) {
  auto net_a = overlay(32);
  auto net_b = overlay(32);
  adversary::AdversaryView view_a(*net_a);
  adversary::AdversaryView view_b(*net_b);
  support::Rng rng_a(21);
  support::Rng rng_b(21);
  const std::string campaign = "mix(churn*2+burst*1):0-6;mass-failure:6-";
  auto a = campaign_strategy(campaign);
  auto b = campaign_strategy(campaign);
  for (std::size_t step = 0; step < 10; ++step) {
    const ChurnBatch ba = a->next_batch(view_a, rng_a, 8, 256, 4);
    const ChurnBatch bb = b->next_batch(view_b, rng_b, 8, 256, 4);
    EXPECT_EQ(ba.victims, bb.victims) << "step " << step;
    EXPECT_EQ(ba.attach_to, bb.attach_to) << "step " << step;
    (void)net_a->apply(ba);
    (void)net_b->apply(bb);
    view_a.advance();
    view_b.advance();
  }
}

TEST(StrategyBatch, CampaignReplayToleratesStaleTargets) {
  auto net = overlay(16);
  adversary::AdversaryView view(*net);
  support::Rng rng(2);
  const auto alive = net->alive_nodes();
  // Script one action whose victim is already dead by replay time (a node id
  // far past the population) between two valid ones: recorded traces replay
  // against topologies that diverge, so the stale row is skipped, not fatal.
  adversary::CampaignSpec spec;
  adversary::CampaignPhase ph;  // [0, open)
  ph.trace_path = "inline";  // marks the phase as replay
  ph.script = {{true, alive[0]},
               {false, static_cast<graph::NodeId>(1u << 20)},
               {false, alive[1]}};
  spec.phases.push_back(ph);
  adversary::CampaignStrategy strategy(
      spec, [](const std::string& name) { return sim::make_strategy(name); });
  const ChurnBatch batch = strategy.next_batch(view, rng, 3, 1u << 20, 3);
  ASSERT_EQ(batch.attach_to.size(), 1u);
  EXPECT_EQ(batch.attach_to[0], alive[0]);
  ASSERT_EQ(batch.victims.size(), 1u);
  EXPECT_EQ(batch.victims[0], alive[1]);
  // Exhausted replay phases go quiet instead of aborting.
  EXPECT_TRUE(strategy.next_batch(view, rng, 3, 1u << 20, 3).empty());
}

}  // namespace
}  // namespace dex
