// The scenario engine (sim/scenario.h) and the unified HealingOverlay
// interface (sim/overlay.h): determinism of the recorded trace, conformance
// of every backend adapter under sustained random churn (population bounds,
// meter monotonicity, trace/aggregate coherence), per-step view caching,
// scripted replay, and the factories.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/overlay.h"
#include "sim/scenario.h"

using namespace dex;

namespace {

sim::ScenarioSpec churn_spec(std::uint64_t seed, std::size_t steps,
                             std::size_t min_n, std::size_t max_n) {
  sim::ScenarioSpec spec;
  spec.seed = seed;
  spec.steps = steps;
  spec.min_n = min_n;
  spec.max_n = max_n;
  return spec;
}

sim::ScenarioResult run_churn(sim::HealingOverlay& overlay,
                              const sim::ScenarioSpec& spec) {
  adversary::RandomChurn strat(0.5);
  sim::ScenarioRunner runner(overlay, strat, spec);
  return runner.run();
}

const char* kAllBackends[] = {"dex-amortized", "dex-worstcase", "flood",
                              "lawsiu",        "randomflip",    "xheal"};

}  // namespace

// ---------------------------------------------------------- determinism

TEST(ScenarioRunner, SameSpecSameSeedByteIdenticalTrace) {
  const auto spec = churn_spec(77, 120, 16, 128);
  std::vector<std::string> traces;
  std::vector<std::string> summaries;
  for (int rep = 0; rep < 2; ++rep) {
    Params prm;
    prm.seed = 5;
    prm.mode = RecoveryMode::WorstCase;
    sim::DexOverlay overlay(48, prm);
    const auto res = run_churn(overlay, spec);
    traces.push_back(sim::trace_csv(res));
    summaries.push_back(sim::summary_json(res));
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(summaries[0], summaries[1]);
  // A different runner seed must produce a different decision sequence.
  Params prm;
  prm.seed = 5;
  prm.mode = RecoveryMode::WorstCase;
  sim::DexOverlay overlay(48, prm);
  const auto other = run_churn(overlay, churn_spec(78, 120, 16, 128));
  EXPECT_NE(traces[0], sim::trace_csv(other));
}

TEST(ScenarioRunner, DeterminismHoldsForEveryFactoryBackend) {
  for (const char* backend : kAllBackends) {
    std::vector<std::string> traces;
    for (int rep = 0; rep < 2; ++rep) {
      auto overlay = sim::make_overlay(backend, 32, 11);
      ASSERT_NE(overlay, nullptr) << backend;
      const auto res = run_churn(*overlay, churn_spec(3, 60, 12, 64));
      traces.push_back(sim::trace_csv(res));
    }
    EXPECT_EQ(traces[0], traces[1]) << backend;
  }
}

// ---------------------------------------------------------- conformance

TEST(ScenarioRunner, EveryAdapterSurvives200StepChurn) {
  const std::size_t kSteps = 200;
  const std::size_t kMin = 16, kMax = 64;
  for (const char* backend : kAllBackends) {
    SCOPED_TRACE(backend);
    auto overlay = sim::make_overlay(backend, 32, 9);
    ASSERT_NE(overlay, nullptr);

    adversary::RandomChurn strat(0.5);
    sim::ScenarioRunner runner(*overlay, strat,
                               churn_spec(123, kSteps, kMin, kMax));

    // Meters must be monotone: cumulative totals never decrease.
    sim::StepCost prev = overlay->meter().total();
    runner.set_observer(
        [&](const sim::StepRecord&, sim::HealingOverlay& o) {
          const auto& tot = o.meter().total();
          EXPECT_GE(tot.rounds, prev.rounds);
          EXPECT_GE(tot.messages, prev.messages);
          EXPECT_GE(tot.topology_changes, prev.topology_changes);
          prev = tot;
        });
    const auto res = runner.run();

    ASSERT_EQ(res.trace.size(), kSteps);
    sim::StepCost sum;
    for (const auto& rec : res.trace) {
      EXPECT_GE(rec.n, kMin);
      EXPECT_LE(rec.n, kMax);
      sum += rec.cost;
    }
    // Trace and aggregates agree, and the overlay's lifetime meter covers
    // at least what the trace recorded.
    EXPECT_EQ(sum.rounds, res.total.rounds);
    EXPECT_EQ(sum.messages, res.total.messages);
    EXPECT_EQ(sum.topology_changes, res.total.topology_changes);
    const auto& tot = overlay->meter().total();
    EXPECT_GE(tot.rounds, res.total.rounds);
    EXPECT_GE(tot.messages, res.total.messages);
    EXPECT_GE(tot.topology_changes, res.total.topology_changes);

    EXPECT_EQ(res.final_n, overlay->n());
    EXPECT_EQ(res.backend, backend);
    overlay->check_invariants();
  }
}

TEST(ScenarioRunner, TargetedAttackOnDexKeepsInvariants) {
  Params prm;
  prm.seed = 21;
  prm.mode = RecoveryMode::WorstCase;
  sim::DexOverlay overlay(32, prm);
  adversary::CoordinatorKiller strat;
  sim::ScenarioRunner runner(overlay, strat, churn_spec(6, 80, 12, 96));
  const auto res = runner.run();
  ASSERT_EQ(res.trace.size(), 80u);
  overlay.check_invariants();
  // The killer alternates inserts with coordinator deletions; both kinds
  // must actually occur.
  std::size_t deletes = 0;
  for (const auto& rec : res.trace) deletes += rec.insert ? 0 : 1;
  EXPECT_GT(deletes, 20u);
  EXPECT_LT(deletes, 60u);
}

// ------------------------------------------------------ spec machinery

TEST(ScenarioRunner, WarmupStepsAreNotRecorded) {
  Params prm;
  prm.seed = 31;
  sim::DexOverlay overlay(24, prm);
  adversary::InsertOnly strat;
  auto spec = churn_spec(9, 10, 8, 512);
  spec.warmup_steps = 40;
  sim::ScenarioRunner runner(overlay, strat, spec);
  const auto res = runner.run();
  EXPECT_EQ(res.trace.size(), 10u);
  // 10 recorded insert-only steps from whatever population warmup left.
  EXPECT_EQ(res.final_n, res.trace.front().n + 9);
}

TEST(ScenarioRunner, GapSampledOnScheduleAndDegreeMeasured) {
  Params prm;
  prm.seed = 41;
  sim::DexOverlay overlay(24, prm);
  adversary::RandomChurn strat(0.5);
  auto spec = churn_spec(13, 30, 8, 96);
  spec.gap_every = 10;
  spec.measure_degree = true;
  sim::ScenarioRunner runner(overlay, strat, spec);
  const auto res = runner.run();
  for (const auto& rec : res.trace) {
    if (rec.step % 10 == 0) {
      EXPECT_GT(rec.gap, 0.0) << rec.step;
    } else {
      EXPECT_LT(rec.gap, 0.0) << rec.step;
    }
    EXPECT_GT(rec.max_degree, 0u);
  }
  EXPECT_GT(res.min_gap, 0.0);
  EXPECT_LT(res.min_gap, 1.0);
  EXPECT_GT(res.max_degree, 0u);
}

TEST(ScenarioRunner, ScriptedStrategyReplaysExactly) {
  Params prm;
  prm.seed = 51;
  sim::DexOverlay overlay(8, prm);
  std::vector<adversary::ChurnAction> script{
      {true, 0}, {true, 1}, {true, 0}, {false, 8}, {false, 9}};
  adversary::Scripted strat(script);
  sim::ScenarioRunner runner(overlay, strat,
                             churn_spec(1, script.size(), 4, 32));
  const auto res = runner.run();
  ASSERT_EQ(res.trace.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(res.trace[i].insert, script[i].insert) << i;
    EXPECT_EQ(res.trace[i].target, script[i].target) << i;
  }
  EXPECT_EQ(res.final_n, 8u + 3 - 2);
}

// ------------------------------------------------------------- caching

namespace {

/// Counts materializations to prove AdversaryView coalesces repeated view
/// queries within a step. A triangle whose nodes can only leave.
class CountingOverlay final : public sim::HealingOverlay {
 public:
  const char* name() const override { return "counting"; }
  sim::NodeId insert(sim::NodeId) override { return 0; }
  void remove(sim::NodeId u) override { alive_[u] = false; }
  std::size_t n() const override {
    return static_cast<std::size_t>(
        std::count(alive_.begin(), alive_.end(), true));
  }
  bool alive(sim::NodeId u) const override { return alive_[u]; }
  std::vector<sim::NodeId> alive_nodes() const override {
    ++nodes_calls;
    std::vector<sim::NodeId> out;
    for (sim::NodeId u = 0; u < 3; ++u) {
      if (alive_[u]) out.push_back(u);
    }
    return out;
  }
  std::vector<bool> alive_mask() const override {
    ++mask_calls;
    return alive_;
  }
  graph::Multigraph snapshot() const override {
    ++snapshot_calls;
    graph::Multigraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    return g;
  }
  std::size_t load(sim::NodeId) const override { return 2; }
  const sim::CostMeter& meter() const override { return meter_; }
  sim::StepCost last_step_cost() const override { return {}; }

  mutable std::size_t nodes_calls = 0;
  mutable std::size_t mask_calls = 0;
  mutable std::size_t snapshot_calls = 0;

 private:
  std::vector<bool> alive_{true, true, true};
  sim::CostMeter meter_;
};

}  // namespace

TEST(AdversaryView, MaterializesEachComponentOncePerStep) {
  CountingOverlay overlay;
  adversary::AdversaryView view(overlay);
  // Every read within a step hands out the same memoized list, not a copy.
  const auto& nodes = view.alive_nodes();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(&view.alive_nodes(), &nodes);
    (void)view.live_csr();
  }
  EXPECT_EQ(nodes, (std::vector<sim::NodeId>{0, 1, 2}));
  // No live_ports() here, so the CSR is built from one snapshot and mask.
  EXPECT_EQ(overlay.nodes_calls, 1u);
  EXPECT_EQ(overlay.snapshot_calls, 1u);
  EXPECT_EQ(overlay.mask_calls, 1u);
  overlay.remove(1);
  view.advance();
  EXPECT_EQ(view.alive_nodes(), (std::vector<sim::NodeId>{0, 2}));
  EXPECT_EQ(view.n(), 2u);
  EXPECT_EQ(overlay.nodes_calls, 2u);
  EXPECT_EQ(overlay.snapshot_calls, 1u);  // not queried since advance
  EXPECT_FALSE(view.live_csr().alive(1));
  EXPECT_EQ(overlay.snapshot_calls, 2u);
  EXPECT_EQ(overlay.mask_calls, 2u);
}

// ------------------------------------------------------------ factories

TEST(Factories, RejectUnknownNames) {
  EXPECT_EQ(sim::make_overlay("no-such-backend", 16, 1), nullptr);
  EXPECT_EQ(sim::make_strategy("no-such-scenario"), nullptr);
}

TEST(Factories, EveryAdvertisedNameConstructs) {
  for (const char* backend : kAllBackends) {
    auto overlay = sim::make_overlay(backend, 16, 2);
    ASSERT_NE(overlay, nullptr) << backend;
    EXPECT_EQ(std::string(overlay->name()), backend);
    EXPECT_GE(overlay->n(), 16u);
  }
  for (const char* scenario :
       {"churn", "insert-only", "delete-only", "oscillate", "targeted",
        "load-attack", "spectral", "greedy-spectral"}) {
    EXPECT_NE(sim::make_strategy(scenario), nullptr) << scenario;
  }
}

TEST(AdversaryView, ExposesOverlayStateAndOracle) {
  sim::LawSiuOverlay with_oracle(16, 2, 3);
  const adversary::AdversaryView v(with_oracle);
  EXPECT_EQ(v.n(), 16u);
  EXPECT_EQ(v.alive_nodes().size(), 16u);
  EXPECT_TRUE(v.has_removal_oracle());
  EXPECT_EQ(v.special_node(), graph::kInvalidNode);

  Params prm;
  prm.seed = 61;
  sim::DexOverlay dex_overlay(16, prm);
  const adversary::AdversaryView dv(dex_overlay);
  EXPECT_FALSE(dv.has_removal_oracle());
  EXPECT_EQ(dv.special_node(), dex_overlay.net().coordinator());
}
