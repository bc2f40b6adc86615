// The incremental live-view contract (graph/csr.h + sim/overlay.h): a
// CsrView maintained purely by draining each overlay's delta journal and
// patching (apply_delta) must stay semantically equal to a from-scratch
// rebuild after every churn step, on every backend, under randomized batch
// churn. This is the property DEX_CHECK_CSR=1 spot-checks in real runs,
// pinned here as a test so the patcher can't rot. Beside it sits the row
// contract every CSR consumer relies on: each row holds the masked snapshot
// row's neighbor multiset, in no promised order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.h"
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

class IncrementalCsr : public ::testing::TestWithParam<std::string> {};

// The tentpole property: drain + patch == rebuild, after every one of a
// few hundred randomized batch steps. The maintenance loop below is the
// same decision procedure AdversaryView::advance runs (patch a standing
// view with a precise delta; anything else rebuilds), so a divergence here
// is a journal hole or a patcher bug, not test drift.
TEST_P(IncrementalCsr, PatchedViewMatchesRebuildUnderRandomChurn) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/7);
  ASSERT_NE(overlay, nullptr);
  dex::support::Rng rng(0xC5Full);

  CsrView view;
  bool valid = false;
  const CsrView::PortsFn ports = [&](NodeId u, std::vector<NodeId>& out) {
    ASSERT_TRUE(overlay->live_ports(u, out));
  };

  ViewDelta delta;
  std::vector<NodeId> row;
  std::size_t patched_steps = 0;
  bool journaled = false;
  for (int t = 0; t < 240; ++t) {
    overlay->apply(random_batch(*overlay, rng));
    // live_ports is total: every alive row, after every step, in every
    // state (DEX's staggered windows and flooding included).
    for (const NodeId u : overlay->alive_nodes()) {
      ASSERT_TRUE(overlay->live_ports(u, row))
          << backend << " step " << t << " node " << u;
    }

    delta.clear();
    const bool drained = overlay->drain_view_delta(delta);
    journaled = journaled || drained;
    if (drained && !delta.full && valid) {
      if (!delta.empty()) view.apply_delta(delta, ports);
      ++patched_steps;
    } else {
      view.build_from_ports(overlay->alive_mask(), ports);
      valid = true;
    }

    CsrView ref;
    ref.build_from_ports(overlay->alive_mask(), ports);
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
// every randomized batch step, each alive row of AdversaryView's CSR —
// patched or rebuilt from live_ports, inside a staggered window or not —
// and each live_ports row itself has the snapshot degree as its length
// and, sorted, equals the sorted masked snapshot row. Row order is
// deliberately left unchecked: it differs from Multigraph port order, and
// no consumer may depend on it.
TEST_P(IncrementalCsr, RowsEqualMaskedSnapshotRowsAsMultisets) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/11);
  ASSERT_NE(overlay, nullptr);
  const auto* dex_overlay =
      dynamic_cast<const dex::sim::DexOverlay*>(overlay.get());
  dex::adversary::AdversaryView view(*overlay);
  dex::support::Rng rng(0x5EEDull);

  // A staggered step is in Phase 1 (building the next cycle) until the
  // swap bumps cycle_epoch(), and in Phase 2 (tearing the old one down)
  // after it.
  std::size_t build_steps = 0;
  std::size_t teardown_steps = 0;
  std::uint64_t calm_epoch = 0;
  std::size_t type2_steps = 0;
  std::vector<NodeId> want;
  std::vector<NodeId> got;
  for (int t = 0; t < 240; ++t) {
    const auto out = overlay->apply(swinging_batch(*overlay, rng, t));
    view.advance();
    if (out.used_type2) ++type2_steps;
    if (dex_overlay != nullptr) {
      const auto& net = dex_overlay->net();
      if (!net.staggered_active()) {
        calm_epoch = net.cycle_epoch();
      } else if (net.cycle_epoch() == calm_epoch) {
        ++build_steps;
      } else {
        ++teardown_steps;
      }
    }

    const CsrView& live = view.live_csr();
    const auto g = overlay->snapshot();
    const auto mask = overlay->alive_mask();
    ASSERT_EQ(live.alive_count(), overlay->n()) << backend << " step " << t;
    std::size_t max_degree = 0;
    for (NodeId u = 0; u < mask.size(); ++u) {
      ASSERT_EQ(live.alive(u), mask[u]) << backend << " step " << t;
      if (!mask[u]) continue;
      max_degree = std::max(max_degree, g.degree(u));
      want.clear();
      for (NodeId v : g.ports(u)) {
        if (mask[v]) want.push_back(v);
      }
      std::sort(want.begin(), want.end());
      const auto row = live.neighbors(u);
      got.assign(row.begin(), row.end());
      ASSERT_EQ(got.size(), g.degree(u))
          << backend << " step " << t << " node " << u;
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << backend << " step " << t << " node " << u;
      ASSERT_TRUE(overlay->live_ports(u, got));
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << backend << " live_ports, step " << t
                           << " node " << u;
    }
    ASSERT_EQ(overlay->max_degree(), max_degree) << backend << " step " << t;
  }
  // The swings must reach the DEX paths that leave the patcher: the type-2
  // rebuild (a full delta) and, in worst-case mode, both phases of the
  // staggered window (full deltas; in Phase 1 live_ports adds the reverse
  // ports of unprocessed future vertices).
  if (dex_overlay != nullptr) {
    EXPECT_GT(type2_steps, 0u) << backend;
  }
  if (backend == "dex-worstcase") {
    EXPECT_GT(build_steps, 0u);
    EXPECT_GT(teardown_steps, 0u);
  }
}

// The spanning-tree certificate (graph/csr.h) under batch churn: after
// every step, removal sets that stress it are asked of the maintained view
// and of a fresh rebuild. The rebuild has no certificate, so it answers by
// full BFS; the maintained view answers from its tree whenever it holds
// one. The sets are random ids plus the tree's anchor, plus the ids of the
// last true answer (left outside the tree; the batch spares them, so they
// survive the patch), plus the ids born in the step, and a whole
// neighborhood, which cuts its center off. Every 40th step rebuilds the
// maintained view as a full delta would, on top of the backends' own full
// deltas (flooding's every step, DEX's type-2).
TEST_P(IncrementalCsr, LocalConnectivityAnswersEqualTheFullBfs) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/23);
  ASSERT_NE(overlay, nullptr);
  dex::support::Rng rng(0xB0257ull);
  const CsrView::PortsFn ports = [&](NodeId u, std::vector<NodeId>& out) {
    ASSERT_TRUE(overlay->live_ports(u, out));
  };

  CsrView view;
  bool valid = false;
  ViewDelta delta;
  std::size_t full_steps = 0;
  std::size_t local_true = 0;
  std::size_t local_false = 0;
  std::size_t with_anchor = 0;
  std::size_t with_parked = 0;
  std::vector<NodeId> parked;  // the removed ids of the last true answer
  std::vector<NodeId> removed;
  for (int t = 0; t < 240; ++t) {
    auto batch = swinging_batch(*overlay, rng, t);
    std::erase_if(batch.victims, [&parked](NodeId v) {
      return std::find(parked.begin(), parked.end(), v) != parked.end();
    });
    overlay->apply(batch);
    delta.clear();
    const bool drained = overlay->drain_view_delta(delta);
    if (drained && !delta.full && valid && t % 40 != 0) {
      if (!delta.empty()) view.apply_delta(delta, ports);
    } else {
      view.build_from_ports(overlay->alive_mask(), ports);
      valid = true;
      ++full_steps;
    }

    const auto alive = overlay->alive_nodes();
    for (int q = 0; q < 4; ++q) {
      removed.clear();
      if (q == 3) {
        // Cut one node off: remove every neighbor it has.
        const NodeId u = alive[rng.below(alive.size())];
        for (const NodeId w : view.neighbors(u)) {
          if (w != u) removed.push_back(w);
        }
      } else {
        const std::size_t k = rng.below(1 + 2 * (q + 1));
        for (std::size_t i = 0; i < k; ++i) {
          removed.push_back(alive[rng.below(alive.size())]);
        }
      }
      if (q == 2 && view.certified()) {
        removed.push_back(view.anchor());
        ++with_anchor;
      }
      if (q == 1 && !parked.empty() && view.certified()) {
        removed.insert(removed.end(), parked.begin(), parked.end());
        ++with_parked;
      }
      if (q == 0) {
        removed.insert(removed.end(), delta.born.begin(), delta.born.end());
      }
      // A fresh view per query: a true answer would certify it.
      CsrView ref;
      ref.build_from_ports(overlay->alive_mask(), ports);
      ASSERT_FALSE(ref.certified());
      const bool local = view.certified();
      const bool want = dex::graph::survivors_connected(ref, removed);
      ASSERT_EQ(dex::graph::survivors_connected(view, removed), want)
          << backend << " step " << t << " query " << q
          << (local ? " (local)" : " (full BFS)");
      if (local) ++(want ? local_true : local_false);
      if (want) parked = removed;
    }
  }
  EXPECT_GE(full_steps, 6u) << backend;
  EXPECT_GT(local_true, 200u) << backend;
  EXPECT_GT(local_false, 20u) << backend;
  EXPECT_GT(with_anchor, 150u) << backend;
  // Flooding keeps no journal, so every step rebuilds the view and no
  // parked id outlives a patch.
  if (backend != "flood") {
    EXPECT_GT(with_parked, 150u) << backend;
  }
}

// The alive list AdversaryView patches from the churn journal must equal
// the overlay's own list after every advance(), on every backend: under
// swinging batch churn (DEX's type-2 rebuilds and staggered windows drain
// full deltas, flooding keeps no journal), across several changes drained
// at once (among them an id born and dead within one drain), and every
// 40th step
// on a fresh view, as after a forced rebuild. The fresh view's list is
// first read after the overlay has already changed, so the next delta
// names ids the list already reflects.
TEST_P(IncrementalCsr, PatchedAliveListEqualsTheOverlays) {
  const std::string backend = GetParam();
  auto overlay = dex::sim::make_overlay(backend, 48, /*seed=*/31);
  ASSERT_NE(overlay, nullptr);
  dex::support::Rng rng(0xA11Eull);
  std::optional<dex::adversary::AdversaryView> view;
  view.emplace(*overlay);
  for (int t = 0; t < 240; ++t) {
    const bool fresh = t % 40 == 20;
    if (fresh) {
      view.reset();
      view.emplace(*overlay);
    } else {
      (void)view->alive_nodes();  // a current list: advance() patches it
    }
    overlay->apply(swinging_batch(*overlay, rng, t));
    if (t % 5 == 0) {
      overlay->apply(random_batch(*overlay, rng));
      // Born and dead within one drain: listed in both born and died.
      overlay->remove(overlay->insert(overlay->alive_nodes().front()));
    }
    if (fresh) (void)view->alive_nodes();  // read after the change
    view->advance();
    ASSERT_EQ(view->alive_nodes(), overlay->alive_nodes())
        << backend << " step " << t;
    view->advance();  // an empty delta
    ASSERT_EQ(view->alive_nodes(), overlay->alive_nodes())
        << backend << " step " << t << " (empty delta)";
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

}  // namespace
