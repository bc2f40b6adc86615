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
  if (on_path_.empty()) {
    // First search: the only O(p) work. Every later search leaves the bit
    // sets all-zero behind it, and depths are read only under a set bit.
    if (inv_table_.empty()) build_inv_table();
    const std::size_t words = (p_ + 63) / 64;
    for (Ball& b : ball_) {
      b.bits.assign(words, 0);
      b.depth.assign(p_, 0);
      b.members.resize(64);
    }
    on_path_.assign(words, 0);
  }
  const Vertex roots[2] = {x, y};
  for (int side = 0; side < 2; ++side) {
    Ball& b = ball_[side];
    const Vertex r = roots[side];
    b.bits[r >> 6] |= std::uint64_t{1} << (r & 63);
    b.depth[r] = 0;
    b.members[0] = static_cast<std::uint32_t>(r);
    b.count = 1;
    b.frontier_begin = 0;
    b.radius = 0;
  }
}

void PCycle::end_search() const {
  // Every set bit belongs to a member, so zeroing a member's whole word
  // clears the set.
  for (Ball& b : ball_) {
    for (std::size_t i = 0; i < b.count; ++i) b.bits[b.members[i] >> 6] = 0;
  }
}

void PCycle::grow_until_met(Vertex x, Vertex y) const {
  begin_search(x, y);
  const std::uint32_t* const inverse = inv_table_.data();
  while (true) {
    // The smaller frontier grows by one whole level. Balls disjoint before
    // the level and intersecting after it pin d(x, y) = a + b exactly.
    const int side =
        ball_[0].frontier_size() <= ball_[1].frontier_size() ? 0 : 1;
    Ball& mine = ball_[side];
    DEX_ASSERT_MSG(mine.frontier_size() > 0,
                   "p-cycle search exhausted without meeting");
    const std::uint32_t depth = ++mine.radius;
    DEX_ASSERT_MSG(depth <= 0xff, "p-cycle ball outgrew its byte depths");
    const std::size_t begin = mine.frontier_begin;
    const std::size_t end = mine.count;
    // A level adds at most three vertices per frontier vertex.
    const std::size_t room = end + 3 * (end - begin);
    if (mine.members.size() < room) mine.members.resize(2 * room);
    // Raw pointers and a local count: a byte store into the depths may
    // alias anything, so through the vectors every pointer would be
    // reloaded after each discovery.
    std::uint32_t* const members = mine.members.data();
    std::uint64_t* const bits = mine.bits.data();
    std::uint8_t* const depths = mine.depth.data();
    const std::uint64_t* const theirs = ball_[1 - side].bits.data();
    std::size_t count = end;
    bool met = false;
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex v = members[i];
      // ports(v), with inverse[0] = 0 standing in for its 0 check.
      const Vertex adjacent[3] = {succ(v), pred(v), inverse[v]};
      for (const Vertex w : adjacent) {
        const std::uint64_t bit = std::uint64_t{1} << (w & 63);
        if ((bits[w >> 6] & bit) != 0) continue;
        bits[w >> 6] |= bit;
        depths[w] = static_cast<std::uint8_t>(depth);
        members[count++] = static_cast<std::uint32_t>(w);
        met |= (theirs[w >> 6] & bit) != 0;
      }
    }
    mine.frontier_begin = end;
    mine.count = count;
    if (met) return;
  }
}

std::uint32_t PCycle::distance(Vertex x, Vertex y) const {
  if (x == y) return 0;
  grow_until_met(x, y);
  end_search();
  return ball_[0].radius + ball_[1].radius;
}

std::vector<Vertex> PCycle::shortest_path(Vertex x, Vertex y) const {
  if (x == y) return {x};
  grow_until_met(x, y);
  const Ball& bx = ball_[0];
  const Ball& by = ball_[1];
  const std::uint32_t a = bx.radius;
  const std::uint32_t d = a + by.radius;
  const auto marked = [this](Vertex v) {
    return ((on_path_[v >> 6] >> (v & 63)) & 1) != 0;
  };
  const auto mark = [this](Vertex v) {
    on_path_[v >> 6] |= std::uint64_t{1} << (v & 63);
    marked_.push_back(v);
  };

  // The meeting set: x's outermost level ∩ y's ball. Those vertices have
  // d(y, ·) = b exactly, and every shortest path crosses one of them.
  marked_.clear();
  for (std::size_t i = bx.frontier_begin; i < bx.count; ++i) {
    if (by.has(bx.members[i])) mark(bx.members[i]);
  }
  // Walk back towards x: a vertex one level in lies on a shortest path iff
  // it neighbors a marked vertex (the graph is undirected). marked_ grows
  // by one level per pass; [begin, end) is the level just marked.
  std::size_t begin = 0;
  for (std::uint32_t depth = a; depth > 0; --depth) {
    const std::size_t end = marked_.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (const Vertex w : ports(marked_[i])) {
        if (marked(w) || !bx.has(w) || bx.depth[w] != depth - 1) continue;
        mark(w);
      }
    }
    begin = end;
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
      if (marked(w) && bx.depth[w] == depth) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  for (std::uint32_t left = by.radius; left > 0; --left) {
    for (const Vertex w : ports(cur)) {
      if (by.has(w) && by.depth[w] == left - 1) {
        cur = w;
        break;
      }
    }
    path.push_back(cur);
  }
  DEX_ASSERT_MSG(cur == y && path.size() == d + 1,
                 "shortest_path: rebuild left the shortest paths");
  for (const Vertex v : marked_) on_path_[v >> 6] = 0;
  end_search();
  return path;
}

void PCycle::ensure_zero_dist() const {
  if (!zero_dist_.empty()) return;
  zero_dist_.assign(p_, ~std::uint32_t{0});
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
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

std::uint32_t PCycle::distance_to_zero(Vertex x) const {
  ensure_zero_dist();
  return zero_dist_[x];
}

}  // namespace dex
