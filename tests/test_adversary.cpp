// Adversary strategies (§2's adaptive adversary): each strategy respects
// population bounds, targets what it claims to target, and the spectral
// attack actually damages a probabilistic overlay while DEX heals.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "dex/network.h"
#include "graph/bfs.h"
#include "graph/spectral.h"
#include "sim/overlay.h"
#include "sim/scenario.h"

namespace adv = dex::adversary;

namespace {

/// An overlay plus the AdversaryView its strategies read. Every mutation
/// goes through apply(), which advances the view so the next draw sees it.
template <class Overlay>
struct Harness {
  template <class... Args>
  explicit Harness(Args&&... args)
      : overlay(std::forward<Args>(args)...), view(overlay) {}

  auto& net() { return overlay.net(); }
  void apply(const adv::ChurnAction& a) {
    if (a.insert) {
      overlay.insert(a.target);
    } else {
      overlay.remove(a.target);
    }
    view.advance();
  }

  Overlay overlay;
  adv::AdversaryView view;
};

using DexHarness = Harness<dex::sim::DexOverlay>;

template <class H>
void drive(H& h, adv::Strategy& strat, dex::support::Rng& rng, int steps,
           std::size_t min_n, std::size_t max_n) {
  for (int t = 0; t < steps; ++t) {
    h.apply(strat.next(h.view, rng, min_n, max_n));
  }
}

/// Checks `victims` against the §5 preconditions on topology `g` with
/// alive set `mask`: distinct alive victims, pairwise non-adjacent, every
/// survivor keeps an edge (a self-loop counts, as in the sampler's port
/// count), and the survivors stay connected.
void expect_section5_safe(const dex::graph::Multigraph& g,
                          const std::vector<bool>& mask,
                          const std::vector<adv::NodeId>& victims) {
  std::vector<bool> dying(mask.size(), false);
  for (const auto v : victims) {
    ASSERT_TRUE(mask[v]) << v;
    ASSERT_FALSE(dying[v]) << "repeated victim " << v;
    dying[v] = true;
  }
  for (const auto v : victims) {
    for (const auto w : g.ports(v)) {
      EXPECT_TRUE(w == v || !dying[w]) << "adjacent victims " << v << ", " << w;
    }
  }
  auto after = mask;
  for (adv::NodeId u = 0; u < mask.size(); ++u) {
    if (!mask[u] || dying[u]) continue;
    const auto row = g.ports(u);
    EXPECT_TRUE(std::any_of(row.begin(), row.end(),
                            [&dying](adv::NodeId w) { return !dying[w]; }))
        << "survivor " << u << " loses every edge";
  }
  for (const auto v : victims) after[v] = false;
  EXPECT_TRUE(dex::graph::is_connected(g, after));
}

/// The path 0 - 1 - ... - (n-1).
dex::graph::Multigraph path_graph(std::size_t n) {
  dex::graph::Multigraph g(n);
  for (adv::NodeId u = 0; u + 1 < n; ++u) g.add_edge(u, u + 1);
  return g;
}

/// Node 0 joined to each of the leaves 1..leaves.
dex::graph::Multigraph star_graph(std::size_t leaves) {
  dex::graph::Multigraph g(leaves + 1);
  for (adv::NodeId u = 1; u <= leaves; ++u) g.add_edge(0, u);
  return g;
}

/// The victims of sample_safe_victims over the whole LazyPermutation of
/// `pool` drawn from Rng(seed), materialized first.
std::vector<adv::NodeId> materialized_shuffle_victims(
    const dex::graph::CsrView& g, const std::vector<adv::NodeId>& pool,
    std::uint64_t seed, std::size_t want) {
  dex::support::Rng rng(seed);
  dex::support::LazyPermutation perm(pool.size());
  std::vector<adv::NodeId> order;
  while (!perm.done()) order.push_back(pool[perm.next(rng)]);
  return adv::sample_safe_victims(g, order, want);
}

}  // namespace

TEST(Adversary, RandomChurnRespectsBounds) {
  dex::Params prm;
  prm.seed = 91;
  DexHarness h(32, prm);
  auto& net = h.net();
  adv::RandomChurn strat(0.5);
  dex::support::Rng rng(1);
  drive(h, strat, rng, 300, 16, 64);
  EXPECT_GE(net.n(), 16u);
  EXPECT_LE(net.n(), 64u);
  net.check_invariants();
}

TEST(Adversary, InsertOnlyGrows) {
  dex::Params prm;
  prm.seed = 92;
  DexHarness h(16, prm);
  auto& net = h.net();
  adv::InsertOnly strat;
  dex::support::Rng rng(2);
  drive(h, strat, rng, 50, 2, 1000000);
  EXPECT_EQ(net.n(), 66u);
}

TEST(Adversary, DeleteOnlyShrinksToFloor) {
  dex::Params prm;
  prm.seed = 93;
  DexHarness h(64, prm);
  auto& net = h.net();
  adv::DeleteOnly strat;
  dex::support::Rng rng(3);
  drive(h, strat, rng, 200, 16, 1000000);
  EXPECT_EQ(net.n(), 16u);  // clamps at min_n (inserts when forced)
  net.check_invariants();
}

TEST(Adversary, OscillateAlternates) {
  dex::Params prm;
  prm.seed = 94;
  DexHarness h(32, prm);
  auto& net = h.net();
  adv::Oscillate strat(10);
  dex::support::Rng rng(4);
  drive(h, strat, rng, 200, 8, 128);
  EXPECT_GE(net.n(), 8u);
  EXPECT_LE(net.n(), 128u);
  net.check_invariants();
}

TEST(Adversary, CoordinatorKillerActuallyKillsCoordinators) {
  dex::Params prm;
  prm.seed = 95;
  DexHarness h(32, prm);
  auto& net = h.net();
  const auto& view = h.view;
  adv::CoordinatorKiller strat;
  dex::support::Rng rng(5);
  std::size_t coordinator_kills = 0;
  for (int t = 0; t < 100; ++t) {
    const auto a = strat.next(view, rng, 8, 64);
    if (!a.insert && a.target == net.coordinator()) ++coordinator_kills;
    h.apply(a);
  }
  EXPECT_GT(coordinator_kills, 20u);
  net.check_invariants();  // DEX shrugs it off
}

TEST(Adversary, LoadAttackTargetsHeaviest) {
  dex::Params prm;
  prm.seed = 96;
  DexHarness h(32, prm);
  auto& net = h.net();
  adv::LoadAttack strat;
  dex::support::Rng rng(6);
  drive(h, strat, rng, 300, 8, 128);
  net.check_invariants();
  // Balanced mapping survives the targeted attack.
  for (auto u : net.alive_nodes()) {
    EXPECT_LE(net.mapping().load(u), net.params().max_load());
  }
}

TEST(Adversary, ScriptedReplaysExactly) {
  dex::Params prm;
  prm.seed = 97;
  DexHarness h(8, prm);
  auto& net = h.net();
  const auto& view = h.view;
  adv::Scripted strat({{true, 0}, {true, 1}, {false, 2}});
  dex::support::Rng rng(7);
  h.apply(strat.next(view, rng, 2, 100));
  h.apply(strat.next(view, rng, 2, 100));
  h.apply(strat.next(view, rng, 2, 100));
  EXPECT_EQ(net.n(), 9u);
  EXPECT_FALSE(net.alive(2));
  EXPECT_DEATH(strat.next(view, rng, 2, 100), "exhausted");
}

TEST(Adversary, SweepCutAttackRunsOnBothNetworks) {
  // Smoke test for the sweep-cut strategy: bounds respected, DEX invariants
  // survive (the decisive degradation contrast uses the greedy strategy
  // below and bench E4).
  dex::Params prm;
  prm.seed = 99;
  DexHarness h(64, prm);
  auto& net = h.net();
  adv::SpectralAttack strat(8);
  dex::support::Rng rng(8);
  drive(h, strat, rng, 120, 16, 256);
  net.check_invariants();
  EXPECT_GE(net.n(), 16u);
}

TEST(Adversary, GreedySpectralDeletionDegradesLawSiuButNotDex) {
  // The headline adaptive-adversary contrast (paper §1 + Table 1 col. 1):
  // the unbounded adversary picks each victim by evaluating the post-splice
  // spectral gap. Law–Siu's probabilistic expansion collapses; DEX's
  // deterministic maintenance holds its floor.
  Harness<dex::sim::LawSiuOverlay> ls(160, 2, 98);
  ASSERT_TRUE(ls.view.has_removal_oracle());
  adv::GreedySpectralDeletion attack_ls(24);
  dex::support::Rng rng(8);
  const double ls_gap0 = dex::graph::spectral_gap(ls.view.live_csr()).gap;
  drive(ls, attack_ls, rng, 100, 40, 256);
  const double ls_gap1 = dex::graph::spectral_gap(ls.view.live_csr()).gap;

  dex::Params prm;
  prm.seed = 99;
  DexHarness h(160, prm);
  auto& net = h.net();
  adv::GreedySpectralDeletion attack_dex(24);
  drive(h, attack_dex, rng, 100, 40, 256);
  const double dex_gap =
      dex::graph::spectral_gap(net.snapshot(), net.alive_mask()).gap;

  EXPECT_LT(ls_gap1, 0.5 * ls_gap0);
  EXPECT_GT(dex_gap, 0.02);
  net.check_invariants();
}

// ------------------------------------------------- batch decision surface

TEST(AdversaryBatch, DefaultWrapperProducesSelfConsistentBatches) {
  dex::Params prm;
  prm.seed = 101;
  DexHarness h(32, prm);
  auto& net = h.net();
  const auto& view = h.view;
  adv::RandomChurn strat(0.5);
  dex::support::Rng rng(9);
  const auto batch = strat.next_batch(view, rng, 8, 64, 12);
  EXPECT_LE(batch.size(), 12u);
  // Victims distinct, alive, disjoint from attach points.
  for (std::size_t i = 0; i < batch.victims.size(); ++i) {
    EXPECT_TRUE(net.alive(batch.victims[i]));
    for (std::size_t j = i + 1; j < batch.victims.size(); ++j)
      EXPECT_NE(batch.victims[i], batch.victims[j]);
  }
  for (auto a : batch.attach_to) {
    EXPECT_TRUE(net.alive(a));
    EXPECT_EQ(std::find(batch.victims.begin(), batch.victims.end(), a),
              batch.victims.end());
  }
  // Population projection respects the bounds.
  EXPECT_GE(net.n() - batch.victims.size(), 8u);
  EXPECT_LE(net.n() + batch.attach_to.size(), 64u);
}

TEST(AdversaryBatch, DefaultWrapperHonorsBoundsUnderPressure) {
  dex::Params prm;
  prm.seed = 102;
  DexHarness h(16, prm);
  const auto& view = h.view;
  dex::support::Rng rng(10);
  // Insert-only at a tight cap: at most max_n - n inserts may come back.
  adv::InsertOnly grow;
  const auto b1 = grow.next_batch(view, rng, 4, 18, 10);
  EXPECT_LE(b1.attach_to.size(), 2u);
  EXPECT_TRUE(b1.victims.empty());
  // Delete-only at a floor just below n: only n - floor deletions fit.
  adv::DeleteOnly shrink;
  const auto b2 = shrink.next_batch(view, rng, 14, 64, 10);
  EXPECT_LE(b2.victims.size(), 2u);
}

TEST(AdversaryBatch, SampleSafeVictimsKeepsSurvivorsConnected) {
  dex::Params prm;
  prm.seed = 103;
  dex::DexNetwork net(48, prm);
  const auto g = net.snapshot();
  const auto mask = net.alive_mask();
  dex::graph::CsrView live;
  live.build(g, mask);
  const auto victims = adv::sample_safe_victims(live, net.alive_nodes(), 8);
  EXPECT_GE(victims.size(), 1u);
  auto after = mask;
  for (auto v : victims) after[v] = false;
  EXPECT_TRUE(dex::graph::is_connected(g, after));
  // Every victim keeps a surviving neighbor.
  for (auto v : victims) {
    bool has_survivor = false;
    for (auto w : g.ports(v)) has_survivor = has_survivor || (w != v && after[w]);
    EXPECT_TRUE(has_survivor) << v;
  }
}

TEST(AdversaryBatch, ShuffledSamplerMatchesMaterializedPermutation) {
  // A lazy draw that stops early (DEX) and one that runs the source dry
  // (the 6-path and the star) pick what a full permutation would.
  dex::Params prm;
  prm.seed = 107;
  dex::DexNetwork net(64, prm);
  const auto dex_graph = net.snapshot();
  const std::vector<std::pair<dex::graph::Multigraph, std::vector<bool>>>
      graphs = {{dex_graph, net.alive_mask()},
                {path_graph(6), std::vector<bool>(6, true)},
                {star_graph(5), std::vector<bool>(6, true)}};
  for (const auto& [g, mask] : graphs) {
    dex::graph::CsrView live;
    live.build(g, mask);
    std::vector<adv::NodeId> pool;
    for (adv::NodeId u = 0; u < mask.size(); ++u) {
      if (mask[u]) pool.push_back(u);
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      dex::support::Rng rng(seed);
      const auto lazy = adv::sample_shuffled_victims(live, pool, rng, 8);
      EXPECT_EQ(lazy, materialized_shuffle_victims(live, pool, seed, 8))
          << "seed " << seed;
    }
  }
}

TEST(AdversaryBatch, SamplerReturnsFewerSafeVictimsOnFragileGraphs) {
  for (const auto& g : {path_graph(6), star_graph(5)}) {
    const std::vector<bool> mask(g.node_count(), true);
    dex::graph::CsrView live;
    live.build(g, mask);
    std::vector<adv::NodeId> ascending(g.node_count());
    for (adv::NodeId u = 0; u < ascending.size(); ++u) ascending[u] = u;
    std::vector<std::vector<adv::NodeId>> draws = {
        adv::sample_safe_victims(live, ascending, 6)};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      dex::support::Rng rng(seed);
      draws.push_back(adv::sample_shuffled_victims(live, ascending, rng, 6));
    }
    // Ascending order deletes the path's end (0) or four leaves of the
    // star; a shuffled order may pick only interior path nodes, which the
    // connectivity trim then drops, leaving none.
    EXPECT_GE(draws.front().size(), 1u);
    for (const auto& victims : draws) {
      EXPECT_LT(victims.size(), 6u);
      expect_section5_safe(g, mask, victims);
    }
  }
}

TEST(AdversaryBatch, BurstChurnBatchesMeetSection5Preconditions) {
  for (const char* backend : {"dex-amortized", "lawsiu"}) {
    SCOPED_TRACE(backend);
    auto overlay = dex::sim::make_overlay(backend, 48, 108);
    ASSERT_NE(overlay, nullptr);
    adv::AdversaryView view(*overlay);
    adv::BurstChurn strat(0.5);
    dex::support::Rng rng(14);
    std::size_t deleted = 0;
    for (int step = 0; step < 50; ++step) {
      SCOPED_TRACE(step);
      const auto batch = strat.next_batch(view, rng, 24, 96, 8);
      const auto mask = overlay->alive_mask();
      expect_section5_safe(overlay->snapshot(), mask, batch.victims);
      for (const auto a : batch.attach_to) {
        EXPECT_TRUE(mask[a]);
        EXPECT_EQ(std::count(batch.victims.begin(), batch.victims.end(), a),
                  0);
        EXPECT_LE(static_cast<std::size_t>(std::count(
                      batch.attach_to.begin(), batch.attach_to.end(), a)),
                  dex::sim::kMaxAttachPerNode);
      }
      deleted += batch.victims.size();
      (void)overlay->apply(batch);
      view.advance();
    }
    EXPECT_GT(deleted, 50u);
  }
}

TEST(AdversaryBatch, BurstDrawTakesOrderBatchRngDraws) {
  // One burst draw at n = 20,000 must read O(batch) random numbers: the
  // batch's coin flips, one per candidate read, the attach points and rare
  // rejections. Shuffling the whole alive list would take ~20,000.
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kBatch = 32;
  auto overlay = dex::sim::make_overlay("dex-amortized", kN, 109);
  ASSERT_NE(overlay, nullptr);
  adv::AdversaryView view(*overlay);
  ASSERT_EQ(view.n(), kN);
  adv::BurstChurn strat(0.5);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    dex::support::Rng rng(seed);
    const dex::support::Rng before = rng;
    const auto batch = strat.next_batch(view, rng, kN / 2, 2 * kN, kBatch);
    EXPECT_GT(batch.victims.size(), 0u);
    // Count the draws by stepping a copy until its state matches.
    dex::support::Rng probe = before;
    std::size_t draws = 0;
    while (!(probe == rng) && draws < 4 * kN) {
      (void)probe();
      ++draws;
    }
    ASSERT_TRUE(probe == rng) << "no match within " << 4 * kN << " draws";
    EXPECT_LE(draws, 4 * kBatch);
  }
}

TEST(AdversaryBatch, FlashCrowdWavesInsertThenMakeRoom) {
  dex::Params prm;
  prm.seed = 104;
  DexHarness h(16, prm);
  const auto& view = h.view;
  adv::FlashCrowd strat;
  dex::support::Rng rng(11);
  const auto wave = strat.next_batch(view, rng, 8, 64, 12);
  EXPECT_EQ(wave.victims.size(), 0u);
  EXPECT_GT(wave.attach_to.size(), 0u);
  // Attach multiplicity stays under the §5 cap.
  for (auto a : wave.attach_to) {
    const auto copies = static_cast<std::size_t>(
        std::count(wave.attach_to.begin(), wave.attach_to.end(), a));
    EXPECT_LE(copies, dex::sim::kMaxAttachPerNode);
  }
  // At the cap the crowd departs instead.
  const auto full = strat.next_batch(view, rng, 8, 16, 12);
  EXPECT_TRUE(full.attach_to.empty());
  EXPECT_GT(full.victims.size(), 0u);
  // At the cap and the floor at once nothing fits, and the draw takes no
  // random numbers.
  const dex::support::Rng before = rng;
  EXPECT_TRUE(strat.next_batch(view, rng, 16, 16, 12).empty());
  EXPECT_TRUE(rng == before);
}

TEST(AdversaryBatch, CorrelatedFailureRespectsPreconditionsAndFloor) {
  dex::Params prm;
  prm.seed = 105;
  DexHarness h(48, prm);
  auto& net = h.net();
  const auto& view = h.view;
  adv::CorrelatedFailure strat;
  dex::support::Rng rng(12);
  const auto batch = strat.next_batch(view, rng, 16, 128, 10);
  EXPECT_TRUE(batch.attach_to.empty());
  EXPECT_GE(net.n() - batch.victims.size(), 16u);
  auto mask = net.alive_mask();
  for (auto v : batch.victims) mask[v] = false;
  EXPECT_TRUE(dex::graph::is_connected(net.snapshot(), mask));
  // At the floor it recovers with insertions instead of deleting.
  const auto floor_batch = strat.next_batch(view, rng, 48, 128, 10);
  EXPECT_TRUE(floor_batch.victims.empty());
  EXPECT_GT(floor_batch.attach_to.size(), 0u);
}

TEST(AdversaryBatch, ScriptedBatchesReplayVerbatimAndAbortWhenExhausted) {
  dex::Params prm;
  prm.seed = 106;
  DexHarness h(8, prm);
  const auto& view = h.view;
  dex::support::Rng rng(13);
  adv::Scripted strat({{true, 0}, {false, 3}, {true, 1}, {false, 4}});
  EXPECT_EQ(strat.remaining(), 4u);
  const auto batch = strat.next_batch(view, rng, 2, 100, 3);
  EXPECT_EQ(batch.attach_to, (std::vector<adv::NodeId>{0, 1}));
  EXPECT_EQ(batch.victims, (std::vector<adv::NodeId>{3}));
  EXPECT_EQ(strat.remaining(), 1u);
  EXPECT_DEATH(strat.next_batch(view, rng, 2, 100, 2), "exhausted");
}
