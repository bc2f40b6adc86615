// The incremental live-view contract (graph/csr.h + sim/overlay.h): a
// CsrView maintained purely by draining each overlay's delta journal and
// patching (apply_delta) must stay semantically equal to a from-scratch
// rebuild after every churn step, on every backend, under randomized batch
// churn. This is the property DEX_CHECK_CSR=1 spot-checks in real runs,
// pinned here as a test so the patcher can't rot. Beside it sits the row
// contract every CSR consumer relies on: each row holds the masked snapshot
// row's neighbor multiset, in no promised order. A second suite pins the
// intra-trial parallelism contract: --trial-jobs is a wall-clock knob only,
// traces and summaries are byte-identical for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "support/prng.h"

namespace {

using dex::graph::CsrView;
using dex::graph::NodeId;
using dex::graph::ViewDelta;

/// Random ChurnBatch over the overlay's current population: up to 2
/// victims and up to 2 insertions per step, bounds-guarded so the overlay
/// never shrinks below a safe floor or grows without bound.
dex::sim::ChurnBatch random_batch(const dex::sim::HealingOverlay& overlay,
                                  dex::support::Rng& rng) {
  dex::sim::ChurnBatch batch;
  const auto alive = overlay.alive_nodes();
  const std::size_t kills =
      overlay.n() > 24 ? 1 + rng.below(2) : 0;
  for (std::size_t i = 0; i < kills; ++i) {
    const NodeId v = alive[rng.below(alive.size())];
    bool dup = false;
    for (NodeId w : batch.victims) dup = dup || (w == v);
    if (!dup) batch.victims.push_back(v);
  }
  if (overlay.n() < 96) {
    const std::size_t births = rng.below(3);
    for (std::size_t i = 0; i < births; ++i) {
      const NodeId a = alive[rng.below(alive.size())];
      bool victim = false;
      for (NodeId w : batch.victims) victim = victim || (w == a);
      if (!victim) batch.attach_to.push_back(a);
    }
  }
  return batch;
}

/// Batch churn in 60-step phases that alternately grow the population by 3
/// a step and shrink it by up to 3 a step (never below 24): swings wide
/// enough to trip DEX's type-2 rebuilds and staggered windows.
dex::sim::ChurnBatch swinging_batch(const dex::sim::HealingOverlay& overlay,
                                    dex::support::Rng& rng, int t) {
  dex::sim::ChurnBatch batch;
  const auto alive = overlay.alive_nodes();
  for (int i = 0; i < 3; ++i) {
    const NodeId u = alive[rng.below(alive.size())];
    if ((t / 60) % 2 == 0) {
      batch.attach_to.push_back(u);
    } else if (overlay.n() > 24 + batch.victims.size() &&
               std::find(batch.victims.begin(), batch.victims.end(), u) ==
                   batch.victims.end()) {
      batch.victims.push_back(u);
    }
  }
  return batch;
}

/// True when the overlay's live-ports surface is currently available
/// (per-call capability: DEX withdraws it during staggered windows).
bool live_available(const dex::sim::HealingOverlay& overlay,
                    std::vector<NodeId>& buf) {
  const auto alive = overlay.alive_nodes();
  return !alive.empty() && overlay.live_ports(alive.front(), buf);
}

class IncrementalCsr : public ::testing::TestWithParam<std::string> {};

// The tentpole property: drain + patch == rebuild, after every one of a
// few hundred randomized batch steps. The maintenance loop below is the
// same decision procedure AdversaryView::advance runs (patch only a
// ports-canonical view with a precise delta; anything else rebuilds), so a
// divergence here is a journal hole or a patcher bug, not test drift.
TEST_P(IncrementalCsr, PatchedViewMatchesRebuildUnderRandomChurn) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/7);
  ASSERT_NE(overlay, nullptr);
  dex::support::Rng rng(0xC5Full);

  std::vector<NodeId> probe;
  CsrView view;
  bool valid = false;
  bool canonical = false;  // rows in live_ports order (patchable)?
  const CsrView::PortsFn ports = [&](NodeId u, std::vector<NodeId>& out) {
    ASSERT_TRUE(overlay->live_ports(u, out))
        << "live_ports withdrawn while a canonical view depends on it";
  };

  ViewDelta delta;
  std::size_t patched_steps = 0;
  bool journaled = false;
  for (int t = 0; t < 240; ++t) {
    overlay->apply(random_batch(*overlay, rng));

    delta.clear();
    const bool drained = overlay->drain_view_delta(delta);
    journaled = journaled || drained;
    const bool live = live_available(*overlay, probe);
    if (drained && !delta.full && valid && canonical && live) {
      if (!delta.empty()) view.apply_delta(delta, ports);
      ++patched_steps;
    } else if (live) {
      view.build_from_ports(overlay->alive_mask(), ports);
      valid = true;
      canonical = true;
    } else {
      view.build(overlay->snapshot(), overlay->alive_mask());
      valid = true;
      canonical = false;
    }

    CsrView ref;
    if (canonical) {
      ref.build_from_ports(overlay->alive_mask(), ports);
    } else {
      ref.build(overlay->snapshot(), overlay->alive_mask());
    }
    ASSERT_TRUE(view.equal_to(ref))
        << backend << " diverged from a fresh rebuild at step " << t;
  }

  if (backend == "flood") {
    // Flooding rebuilds wholesale every event; it keeps no journal and the
    // runner takes the rebuild path for it by design.
    EXPECT_FALSE(journaled);
  } else {
    // Every journaled backend must actually exercise the patch path —
    // otherwise this test silently degrades to rebuild-vs-rebuild.
    EXPECT_TRUE(journaled);
    EXPECT_GT(patched_steps, 60u) << backend;
  }
}

// The row contract (graph/csr.h) on the view the strategies read: after
// every randomized batch step, each alive row of AdversaryView's CSR — patched,
// rebuilt from live_ports, or built from the snapshot inside a staggered
// window — has the snapshot degree as its length and, sorted, equals the
// sorted masked snapshot row. Row order is deliberately left unchecked:
// it differs between the two enumerators, and no consumer may depend on it.
TEST_P(IncrementalCsr, RowsEqualMaskedSnapshotRowsAsMultisets) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/11);
  ASSERT_NE(overlay, nullptr);
  const auto* dex_overlay =
      dynamic_cast<const dex::sim::DexOverlay*>(overlay.get());
  dex::adversary::AdversaryView view(*overlay);
  dex::support::Rng rng(0x5EEDull);

  std::size_t staggered_steps = 0;
  std::size_t type2_steps = 0;
  std::vector<NodeId> want;
  std::vector<NodeId> got;
  for (int t = 0; t < 240; ++t) {
    const auto out = overlay->apply(swinging_batch(*overlay, rng, t));
    view.advance();
    if (out.used_type2) ++type2_steps;
    if (dex_overlay != nullptr && dex_overlay->net().staggered_active())
      ++staggered_steps;

    const CsrView& live = view.live_csr();
    const auto g = overlay->snapshot();
    const auto mask = overlay->alive_mask();
    ASSERT_EQ(live.alive_count(), overlay->n()) << backend << " step " << t;
    for (NodeId u = 0; u < mask.size(); ++u) {
      ASSERT_EQ(live.alive(u), mask[u]) << backend << " step " << t;
      if (!mask[u]) continue;
      want.clear();
      for (NodeId v : g.ports(u)) {
        if (mask[v]) want.push_back(v);
      }
      const auto row = live.neighbors(u);
      got.assign(row.begin(), row.end());
      ASSERT_EQ(got.size(), g.degree(u))
          << backend << " step " << t << " node " << u;
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << backend << " step " << t << " node " << u;
    }
  }
  // The swings must reach the two DEX paths that leave the patcher: the
  // type-2 rebuild (a full delta) and, in worst-case mode, the staggered
  // window (no live_ports, so the CSR is built from the snapshot).
  if (dex_overlay != nullptr) {
    EXPECT_GT(type2_steps, 0u) << backend;
  }
  if (backend == "dex-worstcase") {
    EXPECT_GT(staggered_steps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IncrementalCsr,
                         ::testing::ValuesIn(dex::sim::known_overlays()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

namespace {

/// One full traffic-over-batch-churn trial with the given intra-trial
/// thread count; returns the emitted trace + summary bytes.
std::string run_trial(unsigned intra_jobs) {
  auto overlay = dex::sim::make_overlay("dex-amortized", 64, 1);
  overlay->set_intra_jobs(intra_jobs);
  auto strategy = dex::sim::make_strategy("churn");
  dex::sim::ScenarioSpec spec;
  spec.seed = 3;
  spec.steps = 50;
  spec.batch_size = 6;  // multi-event batches: the parallel-walk path
  spec.traffic.workload = "zipf";
  spec.traffic.ops_per_step = 16;
  spec.traffic.keyspace = 512;
  dex::sim::ScenarioRunner runner(*overlay, *strategy, spec);
  const auto res = runner.run();
  // The parallel-walk recovery must actually run for the jobs knob to be
  // exercised (walk epochs only tick on that path).
  EXPECT_GT(res.total_walk_epochs, 0u);
  return dex::sim::trace_csv(res) + dex::sim::summary_json(res);
}

}  // namespace

// The determinism contract behind --trial-jobs: sharded walk-port
// enumeration must not change a single emitted byte.
TEST(TrialJobs, ByteIdenticalAcrossThreadCounts) {
  const std::string one = run_trial(1);
  EXPECT_EQ(one, run_trial(4));
  EXPECT_EQ(one, run_trial(13));
}

}  // namespace
