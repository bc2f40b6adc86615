#pragma once

/// \file bfs.h
/// BFS-based structural queries on multigraphs: distances, eccentricity,
/// connectivity, diameter. These back the flooding cost model
/// (computeSpare / computeLow run for 2*diam rounds in the paper) and the
/// invariant audits (the self-healing guarantee includes connectivity).

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"

namespace dex::graph {

constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

/// Distances from src; kUnreached for unreachable nodes.
/// `alive` (optional) restricts the traversal; empty means all alive.
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(
    const Multigraph& g, NodeId src, const std::vector<bool>& alive = {});

/// Max finite distance from src (0 for isolated src).
[[nodiscard]] std::uint32_t eccentricity(const Multigraph& g, NodeId src,
                                         const std::vector<bool>& alive = {});

/// Whether all alive nodes are mutually reachable (adapter over
/// survivors_connected in graph/csr.h).
[[nodiscard]] bool is_connected(const Multigraph& g,
                                const std::vector<bool>& alive = {});

/// Exact diameter by n BFS runs over alive nodes (use for n up to ~10^4).
[[nodiscard]] std::uint32_t diameter(const Multigraph& g,
                                     const std::vector<bool>& alive = {});

/// 2-sweep lower bound on the diameter (cheap; exact on trees, excellent on
/// expanders). Used by the flooding cost model at large n.
[[nodiscard]] std::uint32_t diameter_estimate(
    const Multigraph& g, const std::vector<bool>& alive = {});

}  // namespace dex::graph
