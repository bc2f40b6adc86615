#include "graph/conductance.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace dex::graph {

namespace {

bool node_alive(const std::vector<bool>& alive, NodeId u) {
  return alive.empty() || alive[u];
}

}  // namespace

CutResult evaluate_cut(const Multigraph& g, const std::vector<NodeId>& side,
                       const std::vector<bool>& alive) {
  CutResult res;
  std::vector<bool> in_side(g.node_count(), false);
  for (NodeId u : side) {
    DEX_ASSERT(node_alive(alive, u));
    in_side[u] = true;
  }
  std::size_t vol_s = 0, vol_total = 0, cut = 0, s_count = 0, n_alive = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!node_alive(alive, u)) continue;
    ++n_alive;
    vol_total += g.degree(u);
    if (!in_side[u]) continue;
    ++s_count;
    vol_s += g.degree(u);
    for (NodeId v : g.ports(u)) {
      if (!in_side[v]) ++cut;
    }
  }
  res.side = side;
  res.cut_edges = cut;
  const std::size_t vol_min = std::min(vol_s, vol_total - vol_s);
  res.conductance = vol_min == 0
                        ? 1.0
                        : static_cast<double>(cut) /
                              static_cast<double>(vol_min);
  const std::size_t small = std::min(s_count, n_alive - s_count);
  res.edge_expansion =
      small == 0 ? 0.0
                 : static_cast<double>(cut) / static_cast<double>(small);
  return res;
}

CutResult sweep_cut(const Multigraph& g, const std::vector<bool>& alive,
                    const SpectralOptions& opts) {
  return sweep_cut(closed_csr(g, alive), {}, opts);
}

CutResult sweep_cut(const CsrView& g, const std::vector<bool>& excluded,
                    const SpectralOptions& opts) {
  const SpectralResult spec = spectral_gap(g, excluded, opts);
  const std::size_t n = spec.nodes.size();
  CutResult best;
  if (n < 2) return best;
  const auto kept = [&excluded](NodeId v) {
    return v >= excluded.size() || !excluded[v];
  };
  const auto degree = [&](NodeId u) {
    const auto row = g.neighbors(u);
    return static_cast<std::size_t>(
        std::count_if(row.begin(), row.end(), kept));
  };

  // Order alive nodes by eigenvector value and scan prefix cuts.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spec.eigenvector[a] < spec.eigenvector[b];
  });

  std::vector<bool> in_side(g.node_count(), false);
  std::size_t vol_total = 0;
  for (NodeId u : spec.nodes) vol_total += degree(u);

  std::size_t vol_s = 0;
  // Running cut size: adding u flips u's ports into/out of the cut.
  std::int64_t cut = 0;
  double best_cond = std::numeric_limits<double>::infinity();
  std::size_t best_prefix = 0;
  std::int64_t best_cut = 0;

  for (std::size_t k = 0; k + 1 < n; ++k) {
    const NodeId u = spec.nodes[order[k]];
    in_side[u] = true;
    vol_s += degree(u);
    for (NodeId v : g.neighbors(u)) {
      if (v == u || !kept(v)) continue;  // self-loops never cross a cut
      cut += in_side[v] ? -1 : +1;
    }
    const std::size_t vol_min = std::min(vol_s, vol_total - vol_s);
    if (vol_min == 0) continue;
    const double cond =
        static_cast<double>(cut) / static_cast<double>(vol_min);
    if (cond < best_cond) {
      best_cond = cond;
      best_prefix = k + 1;
      best_cut = cut;
    }
  }

  best.cut_edges = static_cast<std::size_t>(best_cut);
  best.conductance = best_cond;
  // Report the smaller side for convenience.
  if (best_prefix <= n - best_prefix) {
    for (std::size_t k = 0; k < best_prefix; ++k)
      best.side.push_back(spec.nodes[order[k]]);
  } else {
    for (std::size_t k = best_prefix; k < n; ++k)
      best.side.push_back(spec.nodes[order[k]]);
  }
  best.edge_expansion = best.side.empty()
                            ? 0.0
                            : static_cast<double>(best.cut_edges) /
                                  static_cast<double>(best.side.size());
  return best;
}

double exact_edge_expansion(const Multigraph& g,
                            const std::vector<bool>& alive) {
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (node_alive(alive, u)) nodes.push_back(u);
  }
  const std::size_t n = nodes.size();
  DEX_ASSERT_MSG(n <= 20, "exact_edge_expansion is exponential; n must be <=20");
  if (n < 2) return 0.0;

  double best = std::numeric_limits<double>::infinity();
  // Enumerate non-empty subsets with |S| <= n/2. Fix node 0 out of S when
  // |S| == n/2 and n even? Simpler: enumerate all, filter by popcount.
  const std::uint32_t full = static_cast<std::uint32_t>((1ULL << n) - 1);
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    const auto size = static_cast<std::size_t>(__builtin_popcount(mask));
    if (size > n / 2) continue;
    std::size_t cut = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) continue;
      for (NodeId v : g.ports(nodes[i])) {
        // Locate v's index (n is tiny; linear scan is fine).
        for (std::size_t j = 0; j < n; ++j) {
          if (nodes[j] == v) {
            if (!(mask & (1u << j))) ++cut;
            break;
          }
        }
      }
    }
    best = std::min(best,
                    static_cast<double>(cut) / static_cast<double>(size));
  }
  return best;
}

}  // namespace dex::graph
