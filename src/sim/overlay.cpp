#include "sim/overlay.h"

#include <utility>

#include "dex/batch.h"
#include "graph/bfs.h"
#include "graph/generators.h"

namespace dex::sim {

std::vector<NodeId> HealingOverlay::route(NodeId src, NodeId dst,
                                          const graph::CsrView& live) const {
  // BFS shortest path on the flat live view; parent tie-breaks follow port
  // order, so the path is the one the Multigraph-walking default always
  // returned.
  return graph::csr_shortest_path(live, src, dst);
}

BatchOutcome DexOverlay::apply(const ChurnBatch& batch) {
  if (parallel_batches_ && batch.size() > 1) {
    dex::BatchRequest req{batch.attach_to, batch.victims};
    // The runner's maintained CSR (when wired and current) turns the
    // feasibility connectivity BFS into a flat-array walk — no snapshot,
    // no per-node port materialization.
    if (dex::batch_feasible(net_, req, live_view())) {
      const dex::BatchResult res =
          dex::apply_batch(net_, req, /*prevalidated=*/true);
      BatchOutcome out;
      out.inserted = res.inserted;
      out.cost = res.cost;
      out.walk_epochs = res.walk_epochs;
      out.used_type2 = res.used_type2;
      out.parallel = true;
      return out;
    }
  }
  // Sequential path: same event order as apply_sequential, but with the
  // type-2 rebuilds each event fires attributed to the outcome (the generic
  // default has no window into DexNetwork's step reports).
  BatchOutcome out;
  for (NodeId v : batch.victims) {
    remove(v);
    out.cost += last_step_cost();
    out.used_type2 |= net_.last_report().type2_event;
  }
  for (NodeId a : batch.attach_to) {
    out.inserted.push_back(insert(a));
    out.cost += last_step_cost();
    out.used_type2 |= net_.last_report().type2_event;
  }
  return out;
}

std::vector<NodeId> DexOverlay::route(NodeId src, NodeId dst,
                                      const graph::CsrView& live) const {
  if (src == dst) return {src};
  const auto& ss = net_.mapping().sim(src);
  const auto& ds = net_.mapping().sim(dst);
  if (ss.empty() || ds.empty()) {
    // Mid-build newcomers own no current-cycle vertex yet; they reach the
    // network through their attachment edges, which only the real topology
    // knows about.
    return HealingOverlay::route(src, dst, live);
  }
  const auto vpath = net_.cycle().shortest_path(ss[0], ds[0]);
  std::vector<NodeId> path;
  path.reserve(vpath.size());
  for (const Vertex z : vpath) {
    // Each virtual edge is materialized between the owners of its
    // endpoints, so contracting the vertex path yields a valid hop path;
    // consecutive same-owner vertices collapse into zero-cost local steps.
    const NodeId u = net_.mapping().owner(z);
    if (path.empty() || path.back() != u) path.push_back(u);
  }
  DEX_ASSERT(path.front() == src && path.back() == dst);
  return path;
}

std::unique_ptr<HealingOverlay> make_overlay(const std::string& backend,
                                             std::size_t n0,
                                             std::uint64_t seed) {
  if (backend == "dex-amortized" || backend == "dex-worstcase") {
    dex::Params prm;
    prm.seed = seed;
    prm.mode = backend == "dex-amortized" ? RecoveryMode::Amortized
                                          : RecoveryMode::WorstCase;
    return std::make_unique<DexOverlay>(n0, prm);
  }
  if (backend == "flood") return std::make_unique<FloodRebuildOverlay>(n0);
  if (backend == "lawsiu")
    return std::make_unique<LawSiuOverlay>(n0, /*d=*/3, seed);
  if (backend == "randomflip")
    return std::make_unique<RandomFlipOverlay>(n0, /*d=*/6, seed);
  if (backend == "xheal") {
    // The configuration model can pair a node only with itself; redraw
    // from the same generator until the start graph is connected, so a
    // seed whose first draw is connected keeps it.
    support::Rng gen(seed);
    auto g = graph::make_random_regular(n0, /*d=*/4, gen);
    while (!graph::is_connected(g)) {
      g = graph::make_random_regular(n0, /*d=*/4, gen);
    }
    return std::make_unique<XhealOverlay>(std::move(g));
  }
  return nullptr;
}

const std::vector<std::string>& known_overlays() {
  static const std::vector<std::string> names{
      "dex-amortized",
      "dex-worstcase",
      "flood",
      "lawsiu",
      "randomflip",
      "xheal",
  };
  return names;
}

const char* overlay_names() {
  // Joined from the registry so the usage string can never drift from what
  // make_overlay actually accepts.
  static const std::string joined = [] {
    std::string s;
    for (const auto& name : known_overlays()) {
      if (!s.empty()) s += ", ";
      s += name;
    }
    return s;
  }();
  return joined.c_str();
}

}  // namespace dex::sim
