// Batch-first churn API conformance: the default sequential
// HealingOverlay::apply equals the equivalent single-event sequence on
// every backend; DEX's parallel path (DexOverlay::apply -> dex::apply_batch)
// preserves the paper's invariants and §5 preconditions, and falls back to
// the sequential path when a batch is infeasible; the ScenarioRunner
// threads batch fields through the trace, CSV and JSON.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dex/batch.h"
#include "graph/bfs.h"
#include "sim/overlay.h"
#include "sim/scenario.h"

using namespace dex;

namespace {

const char* kAllBackends[] = {"dex-amortized", "dex-worstcase", "flood",
                              "lawsiu",        "randomflip",    "xheal"};

/// Multigraph equality up to port order: same capacity, same per-node
/// sorted port lists.
bool same_topology(const graph::Multigraph& a, const graph::Multigraph& b) {
  if (a.node_count() != b.node_count()) return false;
  for (graph::NodeId u = 0; u < a.node_count(); ++u) {
    std::vector<graph::NodeId> pa(a.ports(u).begin(), a.ports(u).end());
    std::vector<graph::NodeId> pb(b.ports(u).begin(), b.ports(u).end());
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    if (pa != pb) return false;
  }
  return true;
}

/// A batch any backend can absorb: a few victims that are safe to delete
/// one at a time, plus attach points disjoint from the victims.
sim::ChurnBatch mixed_batch(const sim::HealingOverlay& overlay) {
  sim::ChurnBatch batch;
  const auto nodes = overlay.alive_nodes();
  batch.victims = {nodes[0], nodes[3], nodes[6]};
  batch.attach_to = {nodes[10], nodes[11], nodes[12], nodes[13]};
  return batch;
}

Params amortized(std::uint64_t seed) {
  Params p;
  p.seed = seed;
  p.mode = RecoveryMode::Amortized;
  return p;
}

}  // namespace

// ------------------------------------------- sequential-path conformance

TEST(BatchOverlay, SequentialDefaultMatchesSingleEventSequence) {
  for (const char* backend : kAllBackends) {
    SCOPED_TRACE(backend);
    auto via_batch = sim::make_overlay(backend, 32, 5);
    auto via_events = sim::make_overlay(backend, 32, 5);
    ASSERT_NE(via_batch, nullptr);
    ASSERT_NE(via_events, nullptr);

    const auto batch = mixed_batch(*via_batch);
    const auto out = via_batch->apply_sequential(batch);

    // The canonical equivalent sequence: victims in order, then inserts.
    sim::StepCost manual_cost;
    std::vector<graph::NodeId> manual_inserted;
    for (auto v : batch.victims) {
      via_events->remove(v);
      manual_cost += via_events->last_step_cost();
    }
    for (auto a : batch.attach_to) {
      manual_inserted.push_back(via_events->insert(a));
      manual_cost += via_events->last_step_cost();
    }

    EXPECT_EQ(out.inserted, manual_inserted);
    EXPECT_EQ(out.cost.rounds, manual_cost.rounds);
    EXPECT_EQ(out.cost.messages, manual_cost.messages);
    EXPECT_EQ(out.cost.topology_changes, manual_cost.topology_changes);
    EXPECT_EQ(out.walk_epochs, 0u);
    EXPECT_FALSE(out.parallel);
    EXPECT_EQ(via_batch->n(), via_events->n());
    EXPECT_EQ(via_batch->alive_mask(), via_events->alive_mask());
    EXPECT_TRUE(same_topology(via_batch->snapshot(), via_events->snapshot()))
        << backend;
    via_batch->check_invariants();
  }
}

TEST(BatchOverlay, VirtualApplyDefaultsToSequentialOnBaselines) {
  // For non-DEX backends apply() IS the sequential default; a second
  // overlay driven through apply_sequential must match exactly.
  for (const char* backend : {"flood", "lawsiu", "randomflip", "xheal"}) {
    SCOPED_TRACE(backend);
    auto a = sim::make_overlay(backend, 32, 8);
    auto b = sim::make_overlay(backend, 32, 8);
    const auto batch = mixed_batch(*a);
    const auto out_a = a->apply(batch);
    const auto out_b = b->apply_sequential(batch);
    EXPECT_EQ(out_a.inserted, out_b.inserted);
    EXPECT_EQ(out_a.cost.rounds, out_b.cost.rounds);
    EXPECT_TRUE(same_topology(a->snapshot(), b->snapshot()));
  }
}

// --------------------------------------------- DEX parallel-path checks

TEST(BatchOverlay, DexParallelBatchPreservesInvariants) {
  sim::DexOverlay overlay(64, amortized(91));
  const auto nodes = overlay.alive_nodes();

  sim::ChurnBatch batch;
  // §5-safe victims via the shared sampler; attach points drawn from the
  // survivors, one newcomer each (well under the multiplicity cap).
  adversary::AdversaryView view(overlay);
  batch.victims = adversary::sample_safe_victims(view.live_csr(), nodes, 6);
  ASSERT_GE(batch.victims.size(), 2u);
  for (auto it = nodes.rbegin();
       it != nodes.rend() && batch.attach_to.size() < 8; ++it) {
    if (std::find(batch.victims.begin(), batch.victims.end(), *it) ==
        batch.victims.end()) {
      batch.attach_to.push_back(*it);
    }
  }
  ASSERT_EQ(batch.attach_to.size(), 8u);

  ASSERT_TRUE(dex::batch_feasible(
      overlay.net(), dex::BatchRequest{batch.attach_to, batch.victims}));
  const auto before_n = overlay.n();
  const auto out = overlay.apply(batch);

  EXPECT_TRUE(out.parallel);
  EXPECT_GT(out.walk_epochs, 0u);
  EXPECT_EQ(out.inserted.size(), batch.attach_to.size());
  EXPECT_EQ(overlay.n(), before_n - batch.victims.size() + 8);
  for (auto v : batch.victims) EXPECT_FALSE(overlay.alive(v));
  for (auto u : out.inserted) EXPECT_TRUE(overlay.alive(u));
  overlay.check_invariants();
  EXPECT_TRUE(
      graph::is_connected(overlay.snapshot(), overlay.alive_mask()));
}

TEST(BatchOverlay, InfeasibleBatchFallsBackToSequential) {
  sim::DexOverlay overlay(32, amortized(92));
  const auto nodes = overlay.alive_nodes();
  // Six newcomers on one attach point violates the kMaxAttachPerNode cap,
  // so the parallel path must refuse — and the sequential fallback must
  // still apply the batch (single-event inserts have no multiplicity cap).
  sim::ChurnBatch batch;
  batch.attach_to.assign(6, nodes[0]);
  ASSERT_FALSE(dex::batch_feasible(
      overlay.net(), dex::BatchRequest{batch.attach_to, batch.victims}));
  const auto out = overlay.apply(batch);
  EXPECT_FALSE(out.parallel);
  EXPECT_EQ(out.walk_epochs, 0u);
  EXPECT_EQ(out.inserted.size(), 6u);
  EXPECT_EQ(overlay.n(), 38u);
  overlay.check_invariants();
}

TEST(BatchOverlay, WorstCaseModeAlwaysSequential) {
  Params prm;
  prm.seed = 93;
  prm.mode = RecoveryMode::WorstCase;
  sim::DexOverlay overlay(32, prm);
  const auto batch = mixed_batch(overlay);
  const auto out = overlay.apply(batch);
  EXPECT_FALSE(out.parallel);
  EXPECT_EQ(overlay.n(), 32u - 3 + 4);
  overlay.check_invariants();
}

TEST(BatchOverlay, ParallelDisabledKnobForcesSequential) {
  sim::DexOverlay overlay(64, amortized(94));
  overlay.set_parallel_batches(false);
  const auto batch = mixed_batch(overlay);
  const auto out = overlay.apply(batch);
  EXPECT_FALSE(out.parallel);
  EXPECT_EQ(out.walk_epochs, 0u);
  overlay.check_invariants();
}

TEST(BatchOverlay, SingleEventBatchUsesLegacyPath) {
  // A batch of one must not detour through the parallel machinery — the
  // per-event path of §2 is the contract for batch_size 1.
  sim::DexOverlay overlay(32, amortized(95));
  sim::ChurnBatch one;
  one.attach_to = {overlay.alive_nodes()[2]};
  const auto out = overlay.apply(one);
  EXPECT_FALSE(out.parallel);
  EXPECT_EQ(out.inserted.size(), 1u);
  EXPECT_EQ(overlay.n(), 33u);
}

// --------------------------------------------------- max_degree accessor

TEST(BatchOverlay, DexMaxDegreeMatchesSnapshotScan) {
  sim::DexOverlay overlay(48, amortized(96));
  adversary::RandomChurn strat(0.5);
  sim::ScenarioSpec spec;
  spec.seed = 17;
  spec.steps = 60;
  spec.min_n = 16;
  spec.max_n = 128;
  sim::ScenarioRunner runner(overlay, strat, spec);
  runner.set_observer([](const sim::StepRecord&, sim::HealingOverlay& o) {
    auto& dex_o = static_cast<sim::DexOverlay&>(o);
    const auto g = dex_o.snapshot();
    std::size_t expect = 0;
    for (auto u : dex_o.alive_nodes())
      expect = std::max(expect, g.degree(u));
    EXPECT_EQ(dex_o.max_degree(), expect);
  });
  (void)runner.run();
}

// -------------------------------------------------- runner batch plumbing

TEST(BatchOverlay, RunnerThreadsBatchFieldsThroughTraceCsvJson) {
  sim::DexOverlay overlay(64, amortized(97));
  adversary::BurstChurn strat(0.5);
  sim::ScenarioSpec spec;
  spec.seed = 23;
  spec.steps = 12;
  spec.batch_size = 8;
  spec.min_n = 16;
  spec.max_n = 256;
  sim::ScenarioRunner runner(overlay, strat, spec);
  const auto res = runner.run();

  ASSERT_EQ(res.trace.size(), 12u);
  std::size_t inserts = 0, deletes = 0;
  std::uint64_t epochs = 0;
  for (const auto& rec : res.trace) {
    EXPECT_LE(rec.batch_inserts + rec.batch_deletes, 8u);
    inserts += rec.batch_inserts;
    deletes += rec.batch_deletes;
    epochs += rec.walk_epochs;
  }
  EXPECT_EQ(inserts, res.total_inserts);
  EXPECT_EQ(deletes, res.total_deletes);
  EXPECT_EQ(epochs, res.total_walk_epochs);
  EXPECT_GT(res.parallel_steps, 0u);
  EXPECT_EQ(res.final_n,
            res.start_n + res.total_inserts - res.total_deletes);

  const auto csv = sim::trace_csv(res);
  EXPECT_NE(csv.find("batch_inserts"), std::string::npos);
  EXPECT_NE(csv.find("batch_deletes"), std::string::npos);
  EXPECT_NE(csv.find("walk_epochs"), std::string::npos);
  EXPECT_NE(csv.find("used_type2"), std::string::npos);
  EXPECT_NE(csv.find("batch"), std::string::npos);

  const auto json = sim::summary_json(res);
  EXPECT_NE(json.find("\"batch_size\": 8"), std::string::npos);
  EXPECT_NE(json.find("total_walk_epochs"), std::string::npos);
  EXPECT_NE(json.find("parallel_steps"), std::string::npos);
  overlay.check_invariants();
}

TEST(BatchOverlay, BurstEveryAlternatesBatchAndSingleSteps) {
  auto overlay = sim::make_overlay("lawsiu", 32, 3);
  adversary::RandomChurn strat(0.5);
  sim::ScenarioSpec spec;
  spec.seed = 29;
  spec.steps = 16;
  spec.batch_size = 6;
  spec.burst_every = 4;
  spec.min_n = 8;
  spec.max_n = 256;
  sim::ScenarioRunner runner(*overlay, strat, spec);
  const auto res = runner.run();
  ASSERT_EQ(res.trace.size(), 16u);
  bool saw_burst = false;
  for (const auto& rec : res.trace) {
    const std::size_t events = rec.batch_inserts + rec.batch_deletes;
    if (rec.step % 4 == 0) {
      saw_burst = saw_burst || events > 1;
    } else {
      EXPECT_LE(events, 1u) << rec.step;
    }
  }
  EXPECT_TRUE(saw_burst);
}

TEST(BatchOverlay, BatchScenarioDeterministicPerBackend) {
  for (const char* backend : kAllBackends) {
    SCOPED_TRACE(backend);
    std::vector<std::string> traces;
    for (int rep = 0; rep < 2; ++rep) {
      auto overlay = sim::make_overlay(backend, 32, 11);
      adversary::BurstChurn strat(0.5);
      sim::ScenarioSpec spec;
      spec.seed = 31;
      spec.steps = 10;
      spec.batch_size = 5;
      spec.min_n = 12;
      spec.max_n = 128;
      sim::ScenarioRunner runner(*overlay, strat, spec);
      traces.push_back(sim::trace_csv(runner.run()));
    }
    EXPECT_EQ(traces[0], traces[1]);
  }
}

TEST(BatchOverlay, EveryBackendSurvivesBatchChurnScenarios) {
  for (const char* backend : kAllBackends) {
    for (const char* scenario : {"burst", "flash-crowd", "mass-failure"}) {
      SCOPED_TRACE(std::string(backend) + "/" + scenario);
      auto overlay = sim::make_overlay(backend, 32, 13);
      auto strat = sim::make_strategy(scenario);
      ASSERT_NE(strat, nullptr);
      sim::ScenarioSpec spec;
      spec.seed = 37;
      spec.steps = 20;
      spec.batch_size = 6;
      spec.min_n = 12;
      spec.max_n = 96;
      sim::ScenarioRunner runner(*overlay, *strat, spec);
      const auto res = runner.run();
      for (const auto& rec : res.trace) {
        EXPECT_GE(rec.n, 12u - 0u);
        EXPECT_LE(rec.n, 96u);
      }
      overlay->check_invariants();
      EXPECT_TRUE(
          graph::is_connected(overlay->snapshot(), overlay->alive_mask()));
    }
  }
}
