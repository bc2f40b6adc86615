// The route/placement oracle layer (graph/csr.h + sim/oracle.h): the flat
// CSR live view must agree with the Multigraph + mask it was built from,
// and every DistanceOracle answer must equal a fresh graph::bfs_distances
// on randomized churned views across all six backends. Plus its cost
// contract (one probe per cold query, memoized roots free), unreachable
// pairs, and the sweep byte-determinism contract with the oracle on the
// hot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/experiment.h"
#include "sim/oracle.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"

using namespace dex;
using graph::NodeId;

// ----------------------------------------------------------------- CsrView

TEST(CsrView, MirrorsTheLiveAdjacencyAndDropsTheDead) {
  sim::LawSiuOverlay overlay(20, /*d=*/3, /*seed=*/4);
  overlay.remove(overlay.alive_nodes()[3]);
  overlay.remove(overlay.alive_nodes()[7]);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  graph::CsrView live;
  live.build(g, mask);
  EXPECT_EQ(live.node_count(), g.node_count());
  EXPECT_EQ(live.alive_count(), overlay.n());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(live.alive(u), static_cast<bool>(mask[u]));
    std::vector<NodeId> expect;
    if (mask[u]) {
      for (const NodeId v : g.ports(u)) {
        if (mask[v]) expect.push_back(v);  // port order preserved
      }
    }
    const auto got = live.neighbors(u);
    ASSERT_EQ(got.size(), expect.size()) << "node " << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
  }
}

TEST(CsrView, BfsAndShortestPathMatchTheMultigraphReference) {
  sim::RandomFlipOverlay overlay(24, /*d=*/6, /*seed=*/9);
  overlay.remove(overlay.alive_nodes()[5]);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  graph::CsrView live;
  live.build(g, mask);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> scratch;
  for (const NodeId src : overlay.alive_nodes()) {
    graph::csr_bfs_fill(live, src, dist, scratch);
    const auto ref = graph::bfs_distances(g, src, mask);
    for (const NodeId u : overlay.alive_nodes()) {
      EXPECT_EQ(dist[u], ref[u]) << src << " -> " << u;
      const auto path = graph::csr_shortest_path(live, src, u);
      if (ref[u] == graph::kUnreached) {
        EXPECT_TRUE(path.empty());
      } else {
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.size() - 1, ref[u]);
      }
    }
  }
}

// ---------------------------------------------------------- DistanceOracle

TEST(DistanceOracle, MatchesBfsOnChurnedViewsAcrossAllSixBackends) {
  for (const auto& backend : sim::known_overlays()) {
    auto overlay = sim::make_overlay(backend, 40, /*seed=*/1234);
    ASSERT_NE(overlay, nullptr) << backend;
    auto strategy = sim::make_strategy("churn");
    support::Rng rng(77);
    sim::CachedView cache(*overlay);
    sim::DistanceOracle oracle;
    for (int step = 0; step < 50; ++step) {
      const auto action = strategy->next(cache.view(), rng, 20, 80);
      if (action.insert) {
        overlay->insert(action.target);
      } else {
        overlay->remove(action.target);
      }
      cache.advance();
      if (step % 5 != 0) continue;
      const auto& live = cache.view().live_csr();
      oracle.attach(live);
      const auto g = overlay->snapshot();
      const auto mask = overlay->alive_mask();
      const auto nodes = cache.view().alive_nodes();
      // Enough distinct roots to exercise probes, repeat-memoization and
      // FIFO eviction (> kMaxRoots of them), with repeats mixed in.
      for (int q = 0; q < 150; ++q) {
        const NodeId u = nodes[rng.below(nodes.size())];
        const NodeId v = q % 3 == 0 ? nodes[q % nodes.size()]
                                    : nodes[rng.below(nodes.size())];
        const auto ref = graph::bfs_distances(g, u, mask);
        EXPECT_EQ(oracle.distance(u, v), ref[v])
            << backend << " step " << step << ": " << u << " -> " << v;
      }
    }
  }
}

TEST(DistanceOracle, ColdQueriesProbeOnceAndMemoizedRootsAreFree) {
  sim::LawSiuOverlay overlay(40, /*d=*/3, /*seed=*/5);
  sim::CachedView cache(overlay);
  const auto& live = cache.view().live_csr();
  sim::DistanceOracle oracle;
  oracle.attach(live);
  const auto nodes = overlay.alive_nodes();
  const NodeId home = nodes[0];
  // Cold: every distance() is exactly one probe, repeats included — the
  // oracle memoizes nothing on its own.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      const auto before = oracle.bfs_runs();
      (void)oracle.distance(nodes[i], home);
      EXPECT_EQ(oracle.bfs_runs(), before + 1) << "round " << round;
    }
  }
  // from() materializes the root with one full frontier; afterwards every
  // query touching it, either way round, is a lookup.
  auto before = oracle.bfs_runs();
  const auto& dist = oracle.from(home);
  EXPECT_EQ(oracle.bfs_runs(), before + 1);
  EXPECT_EQ(dist[home], 0u);
  before = oracle.bfs_runs();
  for (const NodeId u : nodes) {
    EXPECT_EQ(oracle.distance(u, home), dist[u]);
    EXPECT_EQ(oracle.distance(home, u), dist[u]);
  }
  // reach() reuses the root.
  const auto reach = oracle.reach(home);
  EXPECT_EQ(reach.count, nodes.size());
  EXPECT_EQ(oracle.bfs_runs(), before);
  // More roots than the ring holds: the oldest are evicted FIFO and cost a
  // probe again, with the same exact answer; the newest stay free.
  ASSERT_GT(nodes.size(), sim::DistanceOracle::kMaxRoots + 1);
  for (const NodeId r : nodes) (void)oracle.from(r);
  const auto ref = graph::bfs_distances(overlay.snapshot(), nodes[1],
                                        overlay.alive_mask());
  before = oracle.bfs_runs();
  EXPECT_EQ(oracle.distance(nodes[1], nodes[0]), ref[nodes[0]]);
  EXPECT_EQ(oracle.bfs_runs(), before + 1);
  EXPECT_EQ(oracle.distance(nodes[1], nodes.back()), ref[nodes.back()]);
  EXPECT_EQ(oracle.bfs_runs(), before + 1);
}

TEST(DistanceOracle, DisconnectedAndDeadPairsAreUnreached) {
  // Two paths, 0-1-2-3 and 4-5-6, joined only through node 7, which is
  // dead; node 8 is alive and isolated.
  graph::Multigraph g(9);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 3},
                            {4, 5}, {5, 6}, {3, 7}, {7, 4}}) {
    g.add_edge(u, v);
  }
  std::vector<bool> alive(9, true);
  alive[7] = false;
  graph::CsrView live;
  live.build(g, alive);
  sim::DistanceOracle oracle;
  oracle.attach(live);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 6}, {3, 4}, {1, 5},
                            {8, 0}, {8, 6}, {0, 7}, {4, 7}, {7, 7}}) {
    EXPECT_EQ(oracle.distance(u, v), graph::kUnreached) << u << " -> " << v;
    EXPECT_EQ(oracle.distance(v, u), graph::kUnreached) << v << " -> " << u;
  }
  EXPECT_EQ(oracle.distance(0, 3), 3u);
  EXPECT_EQ(oracle.distance(6, 4), 2u);
  EXPECT_EQ(oracle.distance(8, 8), 0u);
  // The same answers from a memoized root.
  (void)oracle.from(0);
  EXPECT_EQ(oracle.distance(6, 0), graph::kUnreached);
  EXPECT_EQ(oracle.distance(0, 7), graph::kUnreached);
  EXPECT_EQ(oracle.distance(3, 0), 3u);
}

// ------------------------------------------------------- sweep determinism

TEST(OracleDeterminism, AllSixBackendsSweepBytesAreIdenticalAcrossJobs) {
  sim::ExperimentPlan plan;
  plan.backends = sim::known_overlays();
  plan.scenarios = {"churn"};
  plan.populations = {32};
  plan.batch_sizes = {3};
  plan.seeds = {6};
  plan.base.steps = 25;
  plan.base.traffic.workload = "zipf";
  plan.base.traffic.ops_per_step = 32;

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
  EXPECT_NE(serial.find("failed_writes"), std::string::npos);
}
