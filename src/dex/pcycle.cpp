#include "dex/pcycle.h"

namespace dex {

PCycle::PCycle(std::uint64_t p) : p_(p) {
  DEX_ASSERT_MSG(support::is_prime(p), "p-cycle size must be prime");
  DEX_ASSERT_MSG(p >= 5, "p-cycle needs p >= 5");
  DEX_ASSERT_MSG(p < (std::uint64_t{1} << 32),
                 "inverse table stores u32 vertices");
}

void PCycle::build_inv_table() const {
  // Linear-time inverse table: inv[1] = 1 and, for 1 < i < p,
  // inv[i] = -(p / i) * inv[p mod i] mod p — each entry reads an already
  // computed one because p mod i < i.
  inv_table_.resize(p_);
  inv_table_[0] = 0;  // the self-loop convention of Definition 1
  if (p_ > 1) inv_table_[1] = 1;
  for (std::uint64_t i = 2; i < p_; ++i) {
    const std::uint64_t q = p_ / i;
    const std::uint64_t r = p_ % i;
    inv_table_[i] =
        static_cast<std::uint32_t>(p_ - (q * inv_table_[r]) % p_);
  }
}

void PCycle::begin_search(Vertex x, Vertex y) const {
  if (on_path_.size() != p_ || ++epoch_ == 0) {
    // First search, or a stamp wrap: one real clear every 2^32 searches.
    for (Ball& b : ball_) b.seen.assign(p_, {});
    on_path_.assign(p_, 0);
    epoch_ = 1;
  }
  const Vertex roots[2] = {x, y};
  for (int side = 0; side < 2; ++side) {
    Ball& b = ball_[side];
    b.seen[roots[side]] = {epoch_, 0};
    b.frontier.assign(1, roots[side]);
    b.radius = 0;
  }
}

void PCycle::grow_until_met(Vertex x, Vertex y) const {
  begin_search(x, y);
  while (true) {
    // The smaller frontier grows by one whole level. Balls disjoint before
    // the level and intersecting after it pin d(x, y) = a + b exactly.
    const int side =
        ball_[0].frontier.size() <= ball_[1].frontier.size() ? 0 : 1;
    Ball& mine = ball_[side];
    DEX_ASSERT_MSG(!mine.frontier.empty(),
                   "p-cycle search exhausted without meeting");
    const std::uint32_t depth = ++mine.radius;
    bool met = false;
    next_.clear();
    for (const Vertex v : mine.frontier) {
      for (const Vertex w : ports(v)) {
        if (in_ball(side, w)) continue;
        mine.seen[w] = {epoch_, depth};
        next_.push_back(w);
        met = met || in_ball(1 - side, w);
      }
    }
    mine.frontier.swap(next_);
    if (met) return;
  }
}

std::uint32_t PCycle::distance(Vertex x, Vertex y) const {
  if (x == y) return 0;
  grow_until_met(x, y);
  return ball_[0].radius + ball_[1].radius;
}

std::vector<Vertex> PCycle::shortest_path(Vertex x, Vertex y) const {
  if (x == y) return {x};
  grow_until_met(x, y);
  const Ball& bx = ball_[0];
  const Ball& by = ball_[1];
  const std::uint32_t a = bx.radius;
  const std::uint32_t d = a + by.radius;

  // The meeting set: x's outermost level ∩ y's ball. Those vertices have
  // d(y, ·) = b exactly, and every shortest path crosses one of them.
  auto& level = marked_[0];
  auto& prev = marked_[1];
  level.clear();
  for (const Vertex v : bx.frontier) {
    if (in_ball(1, v)) {
      on_path_[v] = epoch_;
      level.push_back(v);
    }
  }
  // Walk back towards x: a vertex one level in lies on a shortest path iff
  // it neighbors a marked vertex (the graph is undirected).
  for (std::uint32_t depth = a; depth > 0; --depth) {
    prev.clear();
    for (const Vertex v : level) {
      for (const Vertex w : ports(v)) {
        if (on_path_[w] == epoch_ || !in_ball(0, w) ||
            bx.seen[w].depth != depth - 1) {
          continue;
        }
        on_path_[w] = epoch_;
        prev.push_back(w);
      }
    }
    level.swap(prev);
  }

  // Greedy rebuild in port order {succ, pred, inv}: on the x side the first
  // port to a marked vertex one level deeper, on the y side the first port
  // one step closer to y — the lexicographically smallest port sequence.
  std::vector<Vertex> path;
  path.reserve(d + 1);
  path.push_back(x);
  Vertex cur = x;
  for (std::uint32_t depth = 1; depth <= a; ++depth) {
    for (const Vertex w : ports(cur)) {
      if (on_path_[w] == epoch_ && bx.seen[w].depth == depth) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  for (std::uint32_t left = by.radius; left > 0; --left) {
    for (const Vertex w : ports(cur)) {
      if (in_ball(1, w) && by.seen[w].depth == left - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  DEX_ASSERT_MSG(cur == y && path.size() == d + 1,
                 "shortest_path: rebuild left the shortest paths");
  return path;
}

void PCycle::ensure_zero_tree() const {
  if (!zero_dist_.empty()) return;
  zero_dist_.assign(p_, ~std::uint32_t{0});
  zero_parent_.assign(p_, 0);
  std::vector<Vertex> frontier{0};
  zero_dist_[0] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<Vertex> next;
    for (Vertex v : frontier) {
      for (Vertex w : ports(v)) {
        if (zero_dist_[w] != ~std::uint32_t{0}) continue;
        zero_dist_[w] = depth;
        zero_parent_[w] = v;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

std::uint32_t PCycle::distance_to_zero(Vertex x) const {
  ensure_zero_tree();
  return zero_dist_[x];
}

std::vector<Vertex> PCycle::path_to_zero(Vertex x) const {
  ensure_zero_tree();
  std::vector<Vertex> path{x};
  Vertex cur = x;
  while (cur != 0) {
    cur = zero_parent_[cur];
    path.push_back(cur);
  }
  return path;
}

}  // namespace dex
