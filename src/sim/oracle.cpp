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
  // Grown in place when the view gains nodes: the existing words are
  // already zero, and resize zero-fills the new ones.
  const std::size_t words = (view_->node_count() + 63) / 64;
  ++bfs_runs_;
  const NodeId roots[2] = {src, dst};
  for (int side = 0; side < 2; ++side) {
    ProbeBall& b = probe_[side];
    if (b.bits.size() < words) b.bits.resize(words, 0);
    b.bits[roots[side] >> 6] |= std::uint64_t{1} << (roots[side] & 63);
    b.members.assign(1, roots[side]);
    b.frontier_begin = 0;
    b.radius = 0;
  }
  const std::uint32_t d = grow_probe();
  // Every set bit belongs to a member: zero each member's word.
  for (ProbeBall& b : probe_) {
    for (const NodeId v : b.members) b.bits[v >> 6] = 0;
  }
  return d;
}

std::uint32_t DistanceOracle::grow_probe() {
  // Level by level, smaller frontier first. The balls were disjoint before
  // this level, so the first vertex it finds in the other ball sits at that
  // ball's full radius (a shallower one would have put its neighbor, a
  // member of this ball, into the other ball already) and the sum is
  // exact. An empty frontier means its whole component is explored without
  // meeting: unreachable.
  while (true) {
    const std::size_t size0 = probe_[0].frontier_size();
    const std::size_t size1 = probe_[1].frontier_size();
    if (size0 == 0 || size1 == 0) return graph::kUnreached;
    const int side = size0 <= size1 ? 0 : 1;
    ProbeBall& mine = probe_[side];
    const ProbeBall& other = probe_[1 - side];
    const std::uint32_t d = ++mine.radius;
    const std::size_t begin = mine.frontier_begin;
    const std::size_t end = mine.members.size();
    mine.frontier_begin = end;
    std::uint64_t* const bits = mine.bits.data();
    const std::uint64_t* const theirs = other.bits.data();
    for (std::size_t i = begin; i < end; ++i) {
      for (const NodeId y : view_->neighbors(mine.members[i])) {
        const std::uint64_t bit = std::uint64_t{1} << (y & 63);
        if ((bits[y >> 6] & bit) != 0) continue;
        if ((theirs[y >> 6] & bit) != 0) return d + other.radius;
        bits[y >> 6] |= bit;
        mine.members.push_back(y);
      }
    }
  }
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
