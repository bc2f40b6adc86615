#include "sim/oracle.h"

#include "graph/bfs.h"
#include "support/assert.h"

namespace dex::sim {

using graph::NodeId;

void DistanceOracle::attach(const graph::CsrView& view) {
  view_ = &view;
  by_root_.clear();
  for (auto& s : slots_) {
    s.root = graph::kInvalidNode;
    s.reach_done = false;
  }
  next_slot_ = 0;
  bfs_runs_ = 0;
}

DistanceOracle::Slot* DistanceOracle::find(NodeId root) {
  const auto it = by_root_.find(root);
  return it == by_root_.end() ? nullptr : &slots_[it->second];
}

DistanceOracle::Slot& DistanceOracle::materialize(NodeId root) {
  DEX_ASSERT_MSG(view_ != nullptr, "DistanceOracle used before attach()");
  if (Slot* hit = find(root)) return *hit;
  if (slots_.size() < kMaxRoots) {
    // Reserved to the cap up front so growth never reallocates: a Slot
    // reference handed out by from() must survive materializing calls on
    // *other* slots (it still dies with slot recycling — see from()'s
    // lifetime note).
    if (slots_.capacity() < kMaxRoots) slots_.reserve(kMaxRoots);
    slots_.emplace_back();
    next_slot_ = slots_.size() - 1;
  }
  Slot& slot = slots_[next_slot_];
  if (slot.root != graph::kInvalidNode) by_root_.erase(slot.root);
  by_root_[root] = next_slot_;
  next_slot_ = (next_slot_ + 1) % kMaxRoots;
  slot.root = root;
  slot.reach_done = false;
  graph::csr_bfs_fill(*view_, root, slot.dist, scratch_);
  ++bfs_runs_;
  return slot;
}

std::uint32_t DistanceOracle::probe(NodeId src, NodeId dst) {
  const std::size_t n = view_->node_count();
  if (probe_seen_[0].size() != n || ++probe_gen_ == 0) {
    // New view size, or a stamp wrap: one real clear every 2^32 probes.
    for (auto& seen : probe_seen_) seen.assign(n, {});
    probe_gen_ = 1;
  }
  ++bfs_runs_;
  const NodeId roots[2] = {src, dst};
  std::uint32_t radius[2] = {0, 0};
  for (int side = 0; side < 2; ++side) {
    probe_seen_[side][roots[side]] = {probe_gen_, 0};
    probe_frontier_[side].assign(1, roots[side]);
  }
  // Level by level, smaller frontier first. The balls were disjoint before
  // this level, so the first vertex it finds in the other ball sits at that
  // ball's full radius and the sum is exact. An empty frontier means its
  // whole component is explored without meeting: unreachable.
  while (!probe_frontier_[0].empty() && !probe_frontier_[1].empty()) {
    const int side =
        probe_frontier_[0].size() <= probe_frontier_[1].size() ? 0 : 1;
    auto& mine = probe_seen_[side];
    const auto& other = probe_seen_[1 - side];
    const std::uint32_t d = ++radius[side];
    probe_next_.clear();
    for (const NodeId x : probe_frontier_[side]) {
      for (const NodeId y : view_->neighbors(x)) {
        if (mine[y].gen == probe_gen_) continue;
        if (other[y].gen == probe_gen_) return d + other[y].depth;
        mine[y] = {probe_gen_, d};
        probe_next_.push_back(y);
      }
    }
    probe_frontier_[side].swap(probe_next_);
  }
  return graph::kUnreached;
}

std::uint32_t DistanceOracle::distance(NodeId u, NodeId v) {
  DEX_ASSERT_MSG(view_ != nullptr, "DistanceOracle used before attach()");
  if (u == v) return view_->alive(u) ? 0 : graph::kUnreached;
  if (!view_->alive(u) || !view_->alive(v)) return graph::kUnreached;
  if (const Slot* hit = find(v)) return hit->dist[u];
  if (const Slot* hit = find(u)) return hit->dist[v];
  return probe(u, v);
}

const std::vector<std::uint32_t>& DistanceOracle::from(NodeId src) {
  return materialize(src).dist;
}

DistanceOracle::Reach DistanceOracle::reach(NodeId src) {
  Slot& slot = materialize(src);
  if (!slot.reach_done) {
    Reach r;
    for (NodeId u = 0; u < slot.dist.size(); ++u) {
      if (view_->alive(u) && slot.dist[u] != graph::kUnreached) {
        r.sum += slot.dist[u];
        ++r.count;
      }
    }
    slot.reach = r;
    slot.reach_done = true;
  }
  return slot.reach;
}

}  // namespace dex::sim
