#include "graph/bfs.h"

#include <algorithm>

#include "graph/csr.h"

namespace dex::graph {

namespace {

bool node_alive(const std::vector<bool>& alive, NodeId u) {
  return alive.empty() || alive[u];
}

NodeId first_alive(const Multigraph& g, const std::vector<bool>& alive) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (node_alive(alive, u)) return u;
  }
  return kInvalidNode;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Multigraph& g, NodeId src,
                                         const std::vector<bool>& alive) {
  std::vector<std::uint32_t> dist(g.node_count(), kUnreached);
  DEX_ASSERT(src < g.node_count());
  DEX_ASSERT(node_alive(alive, src));
  std::vector<NodeId> frontier{src};
  dist[src] = 0;
  std::vector<NodeId> next;
  std::uint32_t d = 0;
  while (!frontier.empty()) {
    ++d;
    next.clear();
    for (NodeId u : frontier) {
      for (NodeId v : g.ports(u)) {
        if (dist[v] != kUnreached || !node_alive(alive, v)) continue;
        dist[v] = d;
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Multigraph& g, NodeId src,
                           const std::vector<bool>& alive) {
  auto dist = bfs_distances(g, src, alive);
  std::uint32_t ecc = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!node_alive(alive, u) || dist[u] == kUnreached) continue;
    ecc = std::max(ecc, dist[u]);
  }
  return ecc;
}

bool is_connected(const Multigraph& g, const std::vector<bool>& alive) {
  CsrView view;
  view.build(g, alive);
  return survivors_connected(view);
}

std::uint32_t diameter(const Multigraph& g, const std::vector<bool>& alive) {
  std::uint32_t best = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!node_alive(alive, u)) continue;
    best = std::max(best, eccentricity(g, u, alive));
  }
  return best;
}

std::uint32_t diameter_estimate(const Multigraph& g,
                                const std::vector<bool>& alive) {
  const NodeId src = first_alive(g, alive);
  if (src == kInvalidNode) return 0;
  // Sweep 1: farthest node from an arbitrary start.
  auto d1 = bfs_distances(g, src, alive);
  NodeId far = src;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (node_alive(alive, u) && d1[u] != kUnreached && d1[u] > d1[far])
      far = u;
  }
  // Sweep 2: eccentricity of that node lower-bounds the diameter.
  return eccentricity(g, far, alive);
}

}  // namespace dex::graph
