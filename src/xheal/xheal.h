#pragma once

/// \file xheal.h
/// Xheal with guaranteed patches — the application the paper calls out in
/// its related-work discussion: "The self-healing algorithm Xheal [24]
/// maintains spectral properties of the network … but it relied on a
/// randomized expander construction and hence the spectral properties
/// degraded rapidly. Using our algorithm as a subroutine, Xheal can be
/// efficiently implemented with guaranteed spectral properties."
///
/// This module implements that subroutine composition: XhealNetwork
/// maintains an *arbitrary* reconfigurable graph under adversarial node
/// deletions. When a node dies, its orphaned neighbors are reconnected by a
/// deterministic expander patch — a p-cycle (Definition 1) contracted onto
/// the neighbor set exactly the way DEX contracts its virtual graph onto
/// real nodes — instead of Xheal's original probabilistic expander. The
/// patch guarantees:
///   * the neighbors stay mutually connected with O(1) added edges each
///     (patch degree ≤ 3·⌈p/k⌉ ≤ 9 for k ≥ 2 neighbors),
///   * the patch has the p-cycle family's constant spectral gap
///     deterministically (Lemma 1 applies verbatim),
///   * healing one deletion costs O(k) messages and O(1) rounds locally.
///
/// Insertions attach a node with caller-chosen edges (the adversary's
/// prerogative in the self-healing model of [12, 24]).

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/meters.h"
#include "support/prng.h"

namespace dex::xheal {

using graph::Multigraph;
using graph::NodeId;

class XhealNetwork {
 public:
  /// Starts from an arbitrary connected graph.
  explicit XhealNetwork(Multigraph initial);

  /// Inserts a node adjacent to `attach_to` (all alive, at least one).
  NodeId insert(const std::vector<NodeId>& attach_to);

  /// Deletes `victim`; heals its neighborhood with a p-cycle patch.
  void remove(NodeId victim);

  [[nodiscard]] std::size_t n() const { return n_alive_; }
  [[nodiscard]] bool alive(NodeId u) const {
    return u < alive_.size() && alive_[u];
  }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;
  [[nodiscard]] std::vector<bool> alive_mask() const { return alive_; }

  [[nodiscard]] const Multigraph& graph() const { return g_; }
  [[nodiscard]] const sim::CostMeter& meter() const { return meter_; }
  [[nodiscard]] sim::StepCost last_step() const { return last_; }

  /// Live neighbors of u: g_'s port list verbatim — deletions isolate their
  /// victim, so the graph never holds an edge to a dead node and the row is
  /// already live. Order equals Multigraph port order here (g_ *is* the
  /// topology), making this backend's live view snapshot-canonical too.
  [[nodiscard]] bool live_ports(NodeId u, std::vector<NodeId>& out) const {
    const auto ps = g_.ports(u);
    out.assign(ps.begin(), ps.end());
    return true;
  }

  /// Churn journal for incremental CSR maintenance (graph/csr.h); borrowed.
  void set_view_journal(graph::ViewDelta* j) { journal_ = j; }

  /// Largest healing-degree overhead of an alive node: edges added by
  /// patches minus edges lost to deletions (Xheal's degree-increase
  /// measure).
  [[nodiscard]] std::int64_t max_degree_overhead() const;

 private:
  void heal_neighborhood(const std::vector<NodeId>& orphans);

  Multigraph g_;
  std::vector<bool> alive_;
  std::size_t n_alive_ = 0;
  std::vector<std::int64_t> overhead_;
  sim::CostMeter meter_;
  sim::StepCost last_;
  graph::ViewDelta* journal_ = nullptr;
};

}  // namespace dex::xheal
