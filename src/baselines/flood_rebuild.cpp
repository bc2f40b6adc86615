#include "baselines/flood_rebuild.h"

#include <utility>

#include "dex/pcycle.h"
#include "support/assert.h"
#include "support/mathutil.h"

namespace dex::baselines {

FloodRebuildNetwork::FloodRebuildNetwork(std::size_t n0) {
  DEX_ASSERT(n0 >= 2);
  alive_.assign(n0, true);
  n_alive_ = n0;
  rebuild();
  meter_.reset();
}

std::vector<NodeId> FloodRebuildNetwork::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(n_alive_);
  for (NodeId u = 0; u < alive_.size(); ++u) {
    if (alive_[u]) out.push_back(u);
  }
  return out;
}

void FloodRebuildNetwork::rebuild() {
  // Global recompute: p tracks (4n, 8n); every vertex is re-dealt
  // round-robin, so nearly every edge moves.
  const std::uint64_t old_p = p_;
  const std::vector<NodeId> old_nodes = std::exchange(nodes_, alive_nodes());
  p_ = support::inflation_prime(static_cast<std::uint64_t>(n_alive_));
  if (!cyc_ || cyc_->p() != p_) cyc_.emplace(p_);
  rank_.assign(alive_.size(), 0);
  for (std::uint32_t r = 0; r < nodes_.size(); ++r) rank_[nodes_[r]] = r;
  std::uint64_t changed = 0;
  if (p_ == old_p) {
    for (Vertex z = 0; z < p_; ++z) {
      if (owner(z) != old_nodes[z % old_nodes.size()]) changed += 6;
    }
  } else {
    changed = (3 * (p_ + old_p)) / 2;
  }
  // Flood of the membership change: 2 messages per edge, 2·diam rounds
  // (diam of an expander contraction: O(log n)).
  meter_.add_messages(3 * p_);
  meter_.add_rounds(2 * support::scaled_log(2.0, n_alive_));
  meter_.add_topology(changed);
}

NodeId FloodRebuildNetwork::insert() {
  meter_.end_step();
  const NodeId u = static_cast<NodeId>(alive_.size());
  alive_.push_back(true);
  ++n_alive_;
  rebuild();
  last_ = meter_.end_step();
  return u;
}

void FloodRebuildNetwork::remove(NodeId victim) {
  meter_.end_step();
  DEX_ASSERT(alive(victim) && n_alive_ >= 3);
  alive_[victim] = false;
  --n_alive_;
  rebuild();
  last_ = meter_.end_step();
}

std::size_t FloodRebuildNetwork::degree(NodeId u) const {
  DEX_ASSERT(alive(u));
  // Vertices z < p with z ≡ rank(u) (mod n), 3 ports each.
  return 3 * ((p_ - 1 - rank_[u]) / n_alive_ + 1);
}

std::size_t FloodRebuildNetwork::max_degree() const {
  return degree(nodes_.front());
}

graph::Multigraph FloodRebuildNetwork::snapshot() const {
  graph::Multigraph g(alive_.size());
  // Degree convention (as DexNetwork::snapshot): an edge between two
  // distinct vertices dealt to one node is a self-loop counting 2.
  cyc_->for_each_edge([&](Vertex x, Vertex y) {
    g.add_edge(owner(x), owner(y));
    if (x != y && owner(x) == owner(y)) g.add_edge(owner(x), owner(y));
  });
  return g;
}

bool FloodRebuildNetwork::live_ports(NodeId u,
                                     std::vector<NodeId>& out) const {
  DEX_ASSERT(alive(u));
  out.clear();
  for (Vertex z = rank_[u]; z < p_; z += n_alive_) {
    for (Vertex w : cyc_->ports(z)) out.push_back(owner(w));
  }
  return true;
}

}  // namespace dex::baselines
