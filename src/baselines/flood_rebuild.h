#pragma once

/// \file flood_rebuild.h
/// The naive flooding baseline of §3: on every insertion/deletion a neighbor
/// floods the change through the network, every node learns the full
/// membership, and the expander (here: the same p-cycle contraction DEX
/// uses, with a freshly balanced round-robin mapping) is recomputed from
/// global knowledge. Guarantees are as strong as DEX's, but every step costs
/// Θ(n) messages and Θ(n) topology changes — the row our Table 1 bench
/// contrasts DEX against.

#include <cstdint>
#include <optional>
#include <vector>

#include "dex/pcycle.h"
#include "graph/multigraph.h"
#include "sim/meters.h"

namespace dex::baselines {

using graph::NodeId;

class FloodRebuildNetwork {
 public:
  explicit FloodRebuildNetwork(std::size_t n0);

  NodeId insert();
  void remove(NodeId victim);

  [[nodiscard]] std::size_t n() const { return n_alive_; }
  [[nodiscard]] bool alive(NodeId u) const {
    return u < alive_.size() && alive_[u];
  }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;
  [[nodiscard]] std::vector<bool> alive_mask() const { return alive_; }
  /// Real degree of one node: 3 edges per virtual vertex it owns. The
  /// round-robin rebuild keeps the mapping balanced, so loads differ by at
  /// most one vertex — but they do differ (p is never a multiple of n), and
  /// per-node consumers (load attacks, degree histograms) need the real
  /// value, not the collapsed maximum.
  [[nodiscard]] std::size_t degree(NodeId u) const;
  [[nodiscard]] std::size_t max_degree() const;

  [[nodiscard]] graph::Multigraph snapshot() const;
  /// u's row of snapshot() as a multiset: the ports of its vertices
  /// rank(u), rank(u) + n, … (the round-robin deal). Always returns true.
  [[nodiscard]] bool live_ports(NodeId u, std::vector<NodeId>& out) const;
  [[nodiscard]] const sim::CostMeter& meter() const { return meter_; }
  [[nodiscard]] sim::StepCost last_step() const { return last_; }
  [[nodiscard]] std::uint64_t p() const { return p_; }

 private:
  void rebuild();
  /// Round-robin owner of virtual vertex z.
  [[nodiscard]] NodeId owner(Vertex z) const {
    return nodes_[z % nodes_.size()];
  }

  sim::CostMeter meter_;
  sim::StepCost last_;
  std::vector<bool> alive_;
  std::size_t n_alive_ = 0;
  std::uint64_t p_ = 0;
  /// The p-cycle, replaced only when p changes (keeps its inverse table).
  std::optional<PCycle> cyc_;
  /// Alive ids in id order, recomputed every step: vertex z goes to
  /// nodes_[z mod n], and rank_[u] is u's index here.
  std::vector<NodeId> nodes_;
  std::vector<std::uint32_t> rank_;
};

}  // namespace dex::baselines
