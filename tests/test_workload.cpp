// The traffic layer (sim/workload.h) and the routing surface: route path
// validity on every backend, KvStore re-homing, dead-origin proxies on every
// backend, the paper's §4.4.4 DHT on DEX (O(log n) op cost, keys surviving
// type-2 rebuilds including lookups mid-staggering, load balance), stretch
// accounting (exactly 1 on a static ring, >= 1 everywhere), the workload
// conformance contract of docs/EXPERIMENTS.md E7 — all six
// backends serve a 10k-op Zipf workload under batch churn with zero lost
// acknowledged keys — and byte-identical sweep output across job counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "graph/bfs.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "sim/workload.h"

using namespace dex;
using graph::NodeId;

namespace {

/// Every consecutive pair of the path shares a real edge and every hop is
/// alive — a path the network could actually forward along.
void expect_valid_path(const std::vector<NodeId>& path, NodeId src, NodeId dst,
                       const graph::Multigraph& g,
                       const std::vector<bool>& alive) {
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), src);
  EXPECT_EQ(path.back(), dst);
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_TRUE(alive[path[i]]) << "dead hop " << path[i];
    if (i > 0) {
      EXPECT_TRUE(g.has_edge(path[i - 1], path[i]))
          << path[i - 1] << " -> " << path[i] << " is not a real edge";
    }
  }
}

/// A deliberately non-healing overlay: remove() just isolates the victim,
/// so deletions can cut the topology apart — the only way to make routing
/// fail against overlays that otherwise maintain connectivity. Used to pin
/// the failure accounting (failed_writes/failed_lookups) end to end.
class BrittleOverlay final : public sim::HealingOverlay {
 public:
  explicit BrittleOverlay(graph::Multigraph g)
      : g_(std::move(g)), alive_(g_.node_count(), true) {}

  [[nodiscard]] const char* name() const override { return "brittle"; }
  NodeId insert(NodeId attach_to) override {
    const NodeId u = g_.add_node();
    g_.add_edge(attach_to, u);
    alive_.push_back(true);
    return u;
  }
  void remove(NodeId victim) override {
    g_.isolate(victim);  // no healing: neighbors keep whatever is left
    alive_[victim] = false;
  }
  [[nodiscard]] std::size_t n() const override {
    return static_cast<std::size_t>(
        std::count(alive_.begin(), alive_.end(), true));
  }
  [[nodiscard]] bool alive(NodeId u) const override {
    return u < alive_.size() && alive_[u];
  }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const override {
    std::vector<NodeId> out;
    for (NodeId u = 0; u < alive_.size(); ++u)
      if (alive_[u]) out.push_back(u);
    return out;
  }
  [[nodiscard]] std::vector<bool> alive_mask() const override {
    return alive_;
  }
  [[nodiscard]] graph::Multigraph snapshot() const override { return g_; }
  /// isolate() drops every port to a victim, so each row is already live.
  [[nodiscard]] bool live_ports(NodeId u,
                                std::vector<NodeId>& out) const override {
    const auto ports = g_.ports(u);
    out.assign(ports.begin(), ports.end());
    return true;
  }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return g_.degree(u);
  }
  [[nodiscard]] const sim::CostMeter& meter() const override {
    return meter_;
  }
  [[nodiscard]] sim::StepCost last_step_cost() const override { return {}; }

 private:
  graph::Multigraph g_;
  std::vector<bool> alive_;
  sim::CostMeter meter_;
};

/// Two cliques bridged by one cut vertex: deleting it on a non-healing
/// overlay splits the network into two components.
graph::Multigraph barbell(std::size_t side) {
  graph::Multigraph g(2 * side + 1);
  const NodeId cut = static_cast<NodeId>(2 * side);
  for (std::size_t c = 0; c < 2; ++c) {
    const NodeId base = static_cast<NodeId>(c * side);
    for (NodeId i = 0; i < side; ++i) {
      for (NodeId j = i + 1; j < side; ++j) g.add_edge(base + i, base + j);
    }
    g.add_edge(base, cut);
  }
  return g;
}

}  // namespace

// --------------------------------------------------------- routing surface

TEST(RouteSurface, BaselineRouteIsTheBfsShortestPath) {
  sim::FloodRebuildOverlay overlay(24);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  const auto nodes = overlay.alive_nodes();
  graph::CsrView live;
  live.build(g, mask);
  for (const NodeId src : {nodes[0], nodes[7], nodes[23]}) {
    const auto dist = graph::bfs_distances(g, src, mask);
    for (const NodeId dst : nodes) {
      const auto path = overlay.route(src, dst, live);
      expect_valid_path(path, src, dst, g, mask);
      EXPECT_EQ(path.size() - 1, dist[dst]) << src << " -> " << dst;
    }
  }
}

TEST(RouteSurface, DexRouteIsValidAndNeverBeatsBfs) {
  sim::DexOverlay overlay(48);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  const auto nodes = overlay.alive_nodes();
  graph::CsrView live;
  live.build(g, mask);
  support::Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    const NodeId src = nodes[rng.below(nodes.size())];
    const NodeId dst = nodes[rng.below(nodes.size())];
    const auto path = overlay.route(src, dst, live);
    expect_valid_path(path, src, dst, g, mask);
    const auto dist = graph::bfs_distances(g, src, mask);
    EXPECT_GE(path.size() - 1, dist[dst]);
    // The route is a pure function of the mapping: a repeat is identical.
    EXPECT_EQ(overlay.route(src, dst, live), path);
  }
}

// ----------------------------------------------------------------- KvStore

TEST(KvStore, RoundTripEraseAndRehomingUnderChurn) {
  sim::LawSiuOverlay overlay(20, /*d=*/3, /*seed=*/3);
  adversary::AdversaryView view(overlay);
  sim::KvStore kv(overlay);
  kv.sync(view);
  const auto nodes = overlay.alive_nodes();
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(kv.put(k, k * 3, nodes[k % nodes.size()]).ok);
  }
  EXPECT_EQ(kv.size(), 200u);

  // Deleting a node re-homes exactly the keys it hosted; nothing is lost.
  const NodeId victim = kv.home(0);
  std::size_t hosted = 0;
  for (std::uint64_t k = 0; k < 200; ++k) hosted += kv.home(k) == victim;
  overlay.remove(victim);
  view.advance();
  const auto moved = kv.sync(view);
  EXPECT_EQ(moved.moved_keys, hosted);
  EXPECT_GT(moved.messages, 0u);
  EXPECT_EQ(kv.last_moved().size(), hosted);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const auto r = kv.get(k, overlay.alive_nodes()[0]);
    ASSERT_TRUE(r.ok) << "lost key " << k;
    EXPECT_EQ(*r.value, k * 3);
    EXPECT_NE(kv.home(k), victim);
  }

  // Inserting a node pulls over only the keys it now wins.
  overlay.insert(0);
  view.advance();
  const auto pulled = kv.sync(view);
  EXPECT_LT(pulled.moved_keys, 200u);
  EXPECT_TRUE(kv.erase(0, overlay.alive_nodes()[1]).ok);
  EXPECT_FALSE(kv.get(0, overlay.alive_nodes()[1]).ok);
  EXPECT_EQ(kv.size(), 199u);
}

TEST(KvStore, ChurnedOutOriginResolvesToALiveProxy) {
  for (const auto& backend : sim::known_overlays()) {
    SCOPED_TRACE(backend);
    const auto overlay = sim::make_overlay(backend, 16, 1);
    adversary::AdversaryView view(*overlay);
    sim::KvStore kv(*overlay);
    kv.sync(view);
    const NodeId dead = overlay->alive_nodes()[5];
    EXPECT_TRUE(kv.put(42, 7, dead).ok);
    overlay->remove(dead);
    view.advance();
    kv.sync(view);
    // Requests from the churned-out origin still deliver, routed entirely
    // over live nodes (expect_valid_path is implied: hops are finite and
    // the value round-trips).
    const auto r = kv.get(42, dead);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(*r.value, 7u);
  }
}

// ------------------------------------------------- KvStore over DEX (§4.4.4)

namespace {

/// A KvStore over a DexOverlay, re-synced after every mutation.
struct DexKv {
  DexKv(std::size_t n0, RecoveryMode mode, std::uint64_t seed)
      : overlay(n0, params(mode, seed)), view(overlay), kv(overlay) {
    kv.sync(view);
  }
  static Params params(RecoveryMode mode, std::uint64_t seed) {
    Params p;
    p.seed = seed;
    p.mode = mode;
    return p;
  }
  void resync() {
    view.advance();
    kv.sync(view);
  }
  void insert_random(support::Rng& rng) {
    const auto nodes = overlay.alive_nodes();
    overlay.insert(nodes[rng.below(nodes.size())]);
    resync();
  }

  sim::DexOverlay overlay;  // declared first: view and kv borrow it
  adversary::AdversaryView view;
  sim::KvStore kv;
};

}  // namespace

TEST(KvStoreOnDex, OperationCostIsLogarithmic) {
  DexKv d(256, RecoveryMode::WorstCase, 63);
  const double limit =
      4.0 * std::log2(static_cast<double>(d.overlay.net().p()));
  const auto nodes = d.overlay.alive_nodes();
  for (std::uint64_t k = 0; k < 200; ++k) {
    const NodeId origin = nodes[(k * 37) % nodes.size()];
    const auto put = d.kv.put(k, k, origin);
    ASSERT_TRUE(put.ok);
    EXPECT_LT(static_cast<double>(put.hops), limit);
    const auto get = d.kv.get(k, origin);
    ASSERT_TRUE(get.ok);
    EXPECT_LT(static_cast<double>(get.hops), 2 * limit);
  }
}

TEST(KvStoreOnDex, KeysSurviveAnAmortizedInflation) {
  DexKv d(16, RecoveryMode::Amortized, 65);
  const NodeId origin = d.overlay.special_node();
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(d.kv.put(k, 7 * k, origin).ok);
  }
  support::Rng rng(1);
  const auto inflations = d.overlay.net().inflation_count();
  for (int t = 0; t < 1000 && d.overlay.net().inflation_count() == inflations;
       ++t) {
    d.insert_random(rng);
  }
  ASSERT_GT(d.overlay.net().inflation_count(), inflations);
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto r = d.kv.get(k, d.overlay.special_node());
    ASSERT_TRUE(r.ok) << "lost key " << k;
    EXPECT_EQ(*r.value, 7 * k);
  }
}

TEST(KvStoreOnDex, LookupsSucceedMidStaggeredInflation) {
  DexKv d(32, RecoveryMode::WorstCase, 66);
  support::Rng rng(2);
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(d.kv.put(k, k ^ 0xabc, d.overlay.special_node()).ok);
  }
  std::size_t mid_flight_checks = 0;
  for (int t = 0; t < 6000 && mid_flight_checks < 30; ++t) {
    d.insert_random(rng);
    if (d.overlay.net().staggered_active()) {
      const std::uint64_t k = rng.below(40);
      const auto nodes = d.overlay.alive_nodes();
      const auto r = d.kv.get(k, nodes[rng.below(nodes.size())]);
      ASSERT_TRUE(r.ok) << "mid-staggering lookup failed";
      EXPECT_EQ(*r.value, k ^ 0xabc);
      ++mid_flight_checks;
    }
  }
  EXPECT_GE(mid_flight_checks, 30u) << "staggering never observed";
  for (std::uint64_t k = 0; k < 40; ++k) {
    const auto r = d.kv.get(k, d.overlay.special_node());
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(*r.value, k ^ 0xabc);
  }
}

TEST(KvStoreOnDex, KeysAreLoadBalanced) {
  DexKv d(64, RecoveryMode::WorstCase, 67);
  const std::size_t kKeys = 6400;
  std::vector<std::size_t> per_node(d.kv.live_view().node_count(), 0);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(d.kv.put(k, k, d.overlay.special_node()).ok);
    ++per_node[d.kv.home(k)];
  }
  const double mean =
      static_cast<double>(kKeys) / static_cast<double>(d.overlay.n());
  const std::size_t max_items =
      *std::max_element(per_node.begin(), per_node.end());
  // Rendezvous placement is uniform over alive nodes: factor 6 leaves room
  // for randomness at this scale.
  EXPECT_LT(static_cast<double>(max_items), 6.0 * mean);
}

// ----------------------------------------------------------------- stretch

TEST(Stretch, ExactlyOneOnAStaticRing) {
  // A frozen ring routed by the BFS default: every realized path *is* the
  // optimum, so the stretch accounting must come out at exactly 1 — the
  // calibration point for the hop/optimal bookkeeping.
  sim::XhealOverlay overlay(graph::make_cycle(32));
  adversary::AdversaryView view(overlay);
  sim::KvStore kv(overlay);
  kv.sync(view);
  const auto nodes = overlay.alive_nodes();
  std::uint64_t hops = 0, optimal = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto p = kv.put(k, k, nodes[k % nodes.size()]);
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.hops, p.optimal_hops);
    const auto g = kv.get(k, nodes[(k * 7) % nodes.size()]);
    ASSERT_TRUE(g.ok);
    EXPECT_EQ(g.hops, g.optimal_hops);
    hops += p.hops + g.hops;
    optimal += p.optimal_hops + g.optimal_hops;
  }
  EXPECT_GT(hops, 0u);
  EXPECT_EQ(hops, optimal);
}

TEST(Stretch, MissPaysOneWayOnlyAndHitPaysTheRoundTrip) {
  // The hop audit: a lookup that finds no value gets no reply, so it must
  // not be billed the round trip a hit pays — pinned by comparing the same
  // (origin, home) pair before and after the key is stored.
  sim::XhealOverlay overlay(graph::make_cycle(16));
  adversary::AdversaryView view(overlay);
  sim::KvStore kv(overlay);
  kv.sync(view);
  const std::uint64_t key = 5;
  const NodeId home = kv.home(key);
  const NodeId origin = (home + 4) % 16;  // distance 4 on the ring
  const auto miss = kv.get(key, origin);
  EXPECT_FALSE(miss.ok);
  EXPECT_FALSE(miss.value.has_value());
  EXPECT_GT(miss.hops, 0u);  // the request itself still traveled
  ASSERT_TRUE(kv.put(key, 77, origin).ok);
  const auto hit = kv.get(key, origin);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.hops, 2 * miss.hops);
  EXPECT_EQ(hit.optimal_hops, 2 * miss.optimal_hops);
}

// ------------------------------------------------- failure accounting

TEST(FailureAccounting, FailedWritesAreCountedWhenChurnCutsTheOriginAway) {
  // Deleting the barbell's cut vertex on a non-healing overlay splits the
  // network mid-run: every cross-component request must fail *and be
  // counted* — a dropped put used to vanish from every failure metric.
  BrittleOverlay overlay(barbell(6));
  const NodeId cut = 12;
  std::vector<adversary::ChurnAction> script{{false, cut}};
  for (int i = 0; i < 5; ++i) script.push_back({true, 0});
  adversary::Scripted strategy(std::move(script));
  sim::ScenarioSpec spec;
  spec.seed = 11;
  spec.steps = 6;
  spec.min_n = 3;
  spec.max_n = 64;
  spec.traffic.workload = "uniform";
  spec.traffic.ops_per_step = 40;
  spec.traffic.keyspace = 64;
  spec.traffic.read_fraction = 0.5;
  sim::ScenarioRunner runner(overlay, strategy, spec);
  const auto result = runner.run();
  EXPECT_EQ(result.total_ops, 240u);
  EXPECT_GT(result.total_failed_writes, 0u);
  EXPECT_GT(result.total_failed_lookups, 0u);
  // Delivered ops kept routing inside their component, so realized hops
  // still dominate the optima and nothing negative leaked into the totals.
  EXPECT_GE(result.total_op_hops, result.total_opt_hops);
  // The new column flows through the CSV trace and the JSON summary.
  const auto csv = sim::trace_csv(result);
  EXPECT_NE(csv.find("failed_writes"), std::string::npos);
  std::size_t csv_failed_writes = 0;
  for (const auto& rec : result.trace) csv_failed_writes += rec.failed_writes;
  EXPECT_EQ(csv_failed_writes, result.total_failed_writes);
  const auto json = sim::summary_json(result);
  EXPECT_NE(json.find("\"failed_writes\": " +
                      std::to_string(result.total_failed_writes)),
            std::string::npos);
}

TEST(FailureAccounting, NoDeliveredOpMeansNoStretchInCsvOrJson) {
  // Hub-and-spoke with the hub deleted: every op between distinct nodes is
  // unroutable, so no hop is ever accounted — the per-row CSV stretch cells
  // stay blank and the JSON summary must *omit* mean_stretch rather than
  // report a fictitious 1.0 (the guard-consistency bug).
  graph::Multigraph star(9);
  for (NodeId u = 0; u < 8; ++u) star.add_edge(u, 8);
  BrittleOverlay overlay(std::move(star));
  // Delete the hub, then prune spokes: the survivors stay isolated, so ops
  // between distinct nodes can never deliver.
  std::vector<adversary::ChurnAction> script{
      {false, 8}, {false, 1}, {false, 2}, {false, 3}};
  adversary::Scripted strategy(std::move(script));
  sim::ScenarioSpec spec;
  spec.seed = 2;
  spec.steps = 4;
  spec.min_n = 3;
  spec.max_n = 64;
  spec.traffic.workload = "uniform";
  spec.traffic.ops_per_step = 16;
  spec.traffic.keyspace = 32;
  sim::ScenarioRunner runner(overlay, strategy, spec);
  const auto result = runner.run();
  EXPECT_EQ(result.total_opt_hops, 0u);
  EXPECT_EQ(result.total_op_hops, 0u);
  EXPECT_GT(result.total_failed_writes + result.total_failed_lookups, 0u);
  EXPECT_EQ(sim::summary_json(result).find("mean_stretch"),
            std::string::npos);
  for (const auto& rec : result.trace) {
    const auto cells = sim::trace_csv_cells(rec);
    const auto& header = sim::trace_csv_header();
    const auto at = [&](const char* name) {
      return cells[std::find(header.begin(), header.end(), name) -
                   header.begin()];
    };
    EXPECT_EQ(at("stretch"), "");  // blank cell, matching the JSON omission
  }
}

// --------------------------------------------------- placement invariant

TEST(KvStore, PlacementTracksAFreshStoreThroughJoinsAndLeaves) {
  // The sticky-placement audit: after any amount of churn, every stored
  // key must sit exactly where a fresh KvStore over the same view would
  // put it — keys rebalance onto joiners that out-score their incumbent,
  // and the incremental candidate lists never drift from the rendezvous
  // argmax. 24 nodes fit in one block of the placement scan; 240 span
  // four blocks (sim/hrw_scan.h).
  for (const std::size_t n0 : {std::size_t{24}, std::size_t{240}}) {
    sim::LawSiuOverlay overlay(n0, /*d=*/3, /*seed=*/8);
    adversary::AdversaryView view(overlay);
    sim::KvStore kv(overlay);
    kv.sync(view);
    const auto seed_nodes = overlay.alive_nodes();
    for (std::uint64_t k = 0; k < 256; ++k) {
      ASSERT_TRUE(kv.put(k, k, seed_nodes[k % seed_nodes.size()]).ok);
    }
    support::Rng rng(99);
    for (int step = 0; step < 60; ++step) {
      const auto nodes = overlay.alive_nodes();
      if (rng.chance(0.55) || nodes.size() < n0 * 7 / 12) {
        overlay.insert(nodes[rng.below(nodes.size())]);
      } else {
        overlay.remove(nodes[rng.below(nodes.size())]);
      }
      view.advance();
      kv.sync(view);
      if (step % 2 == 0) {  // occasionally shrink placed_ too
        kv.erase(rng.below(256), overlay.alive_nodes()[0]);
      }
      sim::KvStore fresh(overlay);
      fresh.sync(view);
      for (std::uint64_t k = 0; k < 256; ++k) {
        ASSERT_EQ(kv.home(k), fresh.home(k))
            << "key " << k << " drifted from the rendezvous argmax at step "
            << step << " (n0 " << n0 << ")";
      }
    }
  }
}

// Re-homing prices a handover (the old host survived) with one point probe
// and builds a full frontier only for a destination that receives an
// orphaned key; the charge must equal pricing every move from a full BFS
// of its new home, as one sync() did before.
TEST(KvStore, RehashMessagesEqualFullBfsPricingUnderChurn) {
  sim::LawSiuOverlay overlay(64, /*d=*/3, /*seed=*/12);
  adversary::AdversaryView view(overlay);
  sim::KvStore kv(overlay);
  kv.sync(view);
  constexpr std::uint64_t kKeys = 512;
  const auto seed_nodes = overlay.alive_nodes();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(kv.put(k, k, seed_nodes[k % seed_nodes.size()]).ok);
  }
  support::Rng rng(4242);
  std::vector<NodeId> before(kKeys);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  std::size_t handovers = 0;
  std::size_t orphans = 0;
  for (int step = 0; step < 80; ++step) {
    for (std::uint64_t k = 0; k < kKeys; ++k) before[k] = kv.home(k);
    // One to three events, so a step can mix joins and leaves.
    const std::size_t events = 1 + rng.below(3);
    for (std::size_t e = 0; e < events; ++e) {
      const auto nodes = overlay.alive_nodes();
      if (rng.chance(0.5) || nodes.size() < 40) {
        overlay.insert(nodes[rng.below(nodes.size())]);
      } else {
        overlay.remove(nodes[rng.below(nodes.size())]);
      }
    }
    view.advance();
    const auto stats = kv.sync(view);

    const graph::CsrView& live = view.live_csr();
    std::uint64_t want = 0;
    std::size_t moved = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const NodeId to = kv.home(k);
      const NodeId from = before[k];
      if (to == from) continue;
      ++moved;
      graph::csr_bfs_fill(live, to, dist, queue);
      if (live.alive(from) && dist[from] != graph::kUnreached) {
        want += dist[from];
        ++handovers;
        continue;
      }
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      for (NodeId u = 0; u < dist.size(); ++u) {
        if (live.alive(u) && dist[u] != graph::kUnreached) {
          sum += dist[u];
          ++count;
        }
      }
      want += std::max<std::uint64_t>(count ? sum / count : 1, 1);
      ++orphans;
    }
    ASSERT_EQ(stats.moved_keys, moved) << "step " << step;
    ASSERT_EQ(stats.messages, want) << "step " << step;
  }
  EXPECT_GT(handovers, 50u);
  EXPECT_GT(orphans, 50u);
}

// ------------------------------------------------- conformance (E7 gate)

TEST(WorkloadConformance, AllSixBackendsServeTenKZipfOpsUnderChurnNoLoss) {
  for (const auto& backend : sim::known_overlays()) {
    auto overlay = sim::make_overlay(backend, 48, /*seed=*/90210);
    ASSERT_NE(overlay, nullptr) << backend;
    auto strategy = sim::make_strategy("churn");
    sim::ScenarioSpec spec;
    spec.seed = 4;
    spec.steps = 100;
    spec.batch_size = 4;
    spec.record_trace = false;
    spec.traffic.workload = "zipf";
    spec.traffic.ops_per_step = 100;
    sim::ScenarioRunner runner(*overlay, *strategy, spec);
    const auto result = runner.run();
    EXPECT_EQ(result.total_ops, 10000u) << backend;
    EXPECT_EQ(result.total_failed_lookups, 0u)
        << backend << " lost acknowledged keys";
    EXPECT_GE(result.total_op_hops, result.total_opt_hops) << backend;
    EXPECT_GT(result.total_op_hops, 0u) << backend;
    // 100 steps of batch churn must actually displace keys.
    EXPECT_GT(result.total_moved_keys, 0u) << backend;
    EXPECT_GT(result.total_rehash_messages, 0u) << backend;
  }
}

TEST(WorkloadConformance, HotspotWorkloadServesAndReplaysDeterministically) {
  const auto run_once = [] {
    auto overlay = sim::make_overlay("dex-worstcase", 32, 11);
    auto strategy = sim::make_strategy("mass-failure");
    sim::ScenarioSpec spec;
    spec.seed = 9;
    spec.steps = 40;
    spec.batch_size = 6;
    spec.traffic.workload = "hotspot";
    spec.traffic.ops_per_step = 32;
    sim::ScenarioRunner runner(*overlay, *strategy, spec);
    return runner.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.total_ops, 40u * 32u);
  EXPECT_EQ(a.total_failed_lookups, 0u);
  EXPECT_EQ(sim::trace_csv(a), sim::trace_csv(b));
  EXPECT_EQ(sim::summary_json(a), sim::summary_json(b));
}

// ------------------------------------------------------------- determinism

TEST(WorkloadDeterminism, SweepBytesAreIdenticalAcrossJobCounts) {
  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase", "flood", "xheal"};
  plan.scenarios = {"churn"};
  plan.populations = {32};
  plan.batch_sizes = {3};
  plan.seeds = {1, 2};
  plan.base.steps = 30;
  plan.base.traffic.workload = "zipf";
  plan.base.traffic.ops_per_step = 40;

  const auto run_sweep = [&plan](std::size_t jobs) {
    std::ostringstream csv, json;
    sim::CsvTraceSink csv_sink(csv);
    sim::JsonSummarySink json_sink(json);
    sim::ExecutorOptions opts;
    opts.jobs = jobs;
    sim::Executor executor(opts);
    executor.add_sink(csv_sink);
    executor.add_sink(json_sink);
    executor.run(plan.expand());
    return csv.str() + "\n---\n" + json.str();
  };
  const auto serial = run_sweep(1);
  EXPECT_EQ(serial, run_sweep(8));
  // The sweep carried traffic: the trace rows have non-zero op columns.
  EXPECT_NE(serial.find("\"workload\": \"zipf\""), std::string::npos);
  EXPECT_NE(serial.find("\"failed_lookups\": 0"), std::string::npos);
}

TEST(WorkloadDeterminism, TrafficDoesNotPerturbTheChurnStream) {
  // The same spec with traffic on and off must produce the identical churn
  // decision sequence — the traffic RNG is salted off the trial seed.
  const auto run_once = [](bool traffic) {
    auto overlay = sim::make_overlay("lawsiu", 24, 5);
    auto strategy = sim::make_strategy("churn");
    sim::ScenarioSpec spec;
    spec.seed = 3;
    spec.steps = 50;
    if (traffic) {
      spec.traffic.workload = "uniform";
      spec.traffic.ops_per_step = 16;
    }
    sim::ScenarioRunner runner(*overlay, *strategy, spec);
    return runner.run();
  };
  const auto with = run_once(true);
  const auto without = run_once(false);
  ASSERT_EQ(with.trace.size(), without.trace.size());
  for (std::size_t i = 0; i < with.trace.size(); ++i) {
    EXPECT_EQ(with.trace[i].insert, without.trace[i].insert);
    EXPECT_EQ(with.trace[i].target, without.trace[i].target);
    EXPECT_EQ(with.trace[i].n, without.trace[i].n);
  }
  EXPECT_GT(with.total_ops, 0u);
  EXPECT_EQ(without.total_ops, 0u);
}
