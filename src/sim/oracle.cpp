#include "sim/oracle.h"

#include "graph/bfs.h"
#include "support/assert.h"

namespace dex::sim {

using graph::NodeId;

void DistanceOracle::attach(const graph::CsrView& view) {
  view_ = &view;
  root_ = graph::kInvalidNode;
  bfs_runs_ = 0;
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
  if (v == root_) return dist_[u];
  if (u == root_) return dist_[v];
  return probe(u, v);
}

DistanceOracle::Reach DistanceOracle::reach(NodeId src) {
  DEX_ASSERT_MSG(view_ != nullptr, "DistanceOracle used before attach()");
  if (src == root_) return reach_;
  graph::csr_bfs_fill(*view_, src, dist_, scratch_);
  ++bfs_runs_;
  root_ = src;
  // Dead nodes read kUnreached, so the finite entries are the alive
  // nodes src reaches.
  reach_ = {};
  for (const std::uint32_t d : dist_) {
    if (d != graph::kUnreached) {
      reach_.sum += d;
      ++reach_.count;
    }
  }
  return reach_;
}

}  // namespace dex::sim
