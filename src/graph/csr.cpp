#include "graph/csr.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "graph/bfs.h"
#include "support/assert.h"

namespace dex::graph {

void CsrView::build(const Multigraph& g, const std::vector<bool>& alive) {
  const std::size_t n = g.node_count();
  const auto is_alive = [&alive](NodeId u) {
    return alive.empty() || alive[u];
  };
  alive_.assign(n, 0);
  alive_count_ = 0;
  row_start_.resize(n);
  row_len_.resize(n);
  std::size_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (!is_alive(u)) continue;
    alive_[u] = 1;
    ++alive_count_;
    total += g.degree(u);  // upper bound; dead neighbors trimmed below
  }
  edges_.resize(total);
  std::size_t at = 0;
  for (NodeId u = 0; u < n; ++u) {
    row_start_[u] = static_cast<std::uint32_t>(at);
    std::size_t len = 0;
    if (alive_[u]) {
      for (const NodeId v : g.ports(u)) {
        if (is_alive(v)) {
          edges_[at + len] = v;
          ++len;
        }
      }
    }
    row_len_[u] = static_cast<std::uint32_t>(len);
    at += len;
  }
  edges_.resize(at);
  live_edge_count_ = at;
  garbage_ = 0;
  stamp_.assign(n, 0);
  epoch_ = 0;
  built_ = true;
  drop_certificate();
  last_valid_ = false;
}

void CsrView::build_from_ports(const std::vector<bool>& alive,
                               const PortsFn& ports) {
  const std::size_t n = alive.size();
  alive_.assign(n, 0);
  alive_count_ = 0;
  row_start_.assign(n, 0);
  row_len_.assign(n, 0);
  edges_.clear();
  for (NodeId u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    alive_[u] = 1;
    ++alive_count_;
    row_scratch_.clear();
    ports(u, row_scratch_);
    row_start_[u] = static_cast<std::uint32_t>(edges_.size());
    row_len_[u] = static_cast<std::uint32_t>(row_scratch_.size());
    edges_.insert(edges_.end(), row_scratch_.begin(), row_scratch_.end());
  }
  live_edge_count_ = edges_.size();
  garbage_ = 0;
  stamp_.assign(n, 0);
  epoch_ = 0;
  built_ = true;
  drop_certificate();
  last_valid_ = false;
}

void CsrView::drop_certificate() const {
  certified_ = false;
  anchor_ = kInvalidNode;
  pending_.clear();
}

void CsrView::ensure_capacity(NodeId id) {
  if (id < row_len_.size()) return;
  const std::size_t n = static_cast<std::size_t>(id) + 1;
  row_start_.resize(n, 0);
  row_len_.resize(n, 0);
  alive_.resize(n, 0);
  stamp_.resize(n, 0);
}

void CsrView::rewrite_row(NodeId u, const PortsFn& ports) {
  row_scratch_.clear();
  ports(u, row_scratch_);
  const std::size_t new_len = row_scratch_.size();
  const std::size_t old_len = row_len_[u];
  live_edge_count_ += new_len;
  live_edge_count_ -= old_len;
  if (new_len <= old_len) {
    // In place. An unchanged adjacency reproduces the row byte-for-byte,
    // which is what makes superset-dirty deltas (and stale re-patches after
    // a full rebuild) idempotent.
    std::copy(row_scratch_.begin(), row_scratch_.end(),
              edges_.begin() + row_start_[u]);
    garbage_ += old_len - new_len;
  } else {
    garbage_ += old_len;
    DEX_ASSERT_MSG(edges_.size() + new_len <=
                       static_cast<std::size_t>(~std::uint32_t{0}),
                   "CSR edge arena exceeds 32-bit addressing");
    row_start_[u] = static_cast<std::uint32_t>(edges_.size());
    edges_.insert(edges_.end(), row_scratch_.begin(), row_scratch_.end());
  }
  row_len_[u] = static_cast<std::uint32_t>(new_len);
}

void CsrView::compact() {
  std::vector<NodeId> packed;
  packed.reserve(live_edge_count_);
  for (NodeId u = 0; u < row_len_.size(); ++u) {
    const auto row = neighbors(u);
    const std::uint32_t at = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), row.begin(), row.end());
    row_start_[u] = at;
  }
  edges_.swap(packed);
  garbage_ = 0;
}

void CsrView::apply_delta(const ViewDelta& d, const PortsFn& ports) {
  DEX_ASSERT_MSG(built_, "apply_delta on a never-built CsrView");
  DEX_ASSERT_MSG(!d.full, "a full delta means rebuild, not patch");
  last_valid_ = false;
  ++epoch_;
  touch_scratch_.clear();

  // Deaths first: empty the victim's row, remembering its old neighbors —
  // their rows referenced the victim and need re-enumeration even when the
  // journal did not list them.
  for (const NodeId v : d.died) {
    if (v >= alive_.size() || !alive_[v]) continue;
    const auto row = neighbors(v);
    touch_scratch_.insert(touch_scratch_.end(), row.begin(), row.end());
    garbage_ += row.size();
    live_edge_count_ -= row.size();
    row_len_[v] = 0;
    alive_[v] = 0;
    --alive_count_;
  }
  for (const NodeId u : d.born) {
    ensure_capacity(u);
    if (alive_[u]) continue;  // idempotence under re-applied deltas
    alive_[u] = 1;
    ++alive_count_;
    row_len_[u] = 0;
    touch_scratch_.push_back(u);
  }

  const auto touch = [&](NodeId u) {
    if (u >= alive_.size() || !alive_[u]) return;  // died above or stale
    if (stamp_[u] == epoch_) return;
    stamp_[u] = epoch_;
    rewrite_row(u, ports);
    if (certified_) pending_.push_back(u);
  };
  for (const NodeId u : touch_scratch_) touch(u);
  for (const NodeId u : d.dirty) touch(u);
  // Past alive_count() pending sources the local check would cost as much
  // as the full BFS it replaces.
  if (pending_.size() > alive_count_) drop_certificate();

  // Compact once the abandoned slack dominates the live payload; the
  // threshold keeps tiny views from compacting on every step.
  if (garbage_ > live_edge_count_ && garbage_ > 4096) compact();
}

bool CsrView::equal_to(const CsrView& other) const {
  if (alive_count_ != other.alive_count_) return false;
  const std::size_t n = std::max(node_count(), other.node_count());
  for (NodeId u = 0; u < n; ++u) {
    if (alive(u) != other.alive(u)) return false;
    const auto a = neighbors(u);
    const auto b = other.neighbors(u);
    if (a.size() != b.size()) return false;
    if (!std::equal(a.begin(), a.end(), b.begin())) return false;
  }
  return true;
}

void csr_bfs_fill(const CsrView& g, NodeId src, std::vector<std::uint32_t>& dist,
                  std::vector<NodeId>& scratch) {
  dist.assign(g.node_count(), kUnreached);
  if (!g.alive(src)) return;
  scratch.clear();
  scratch.push_back(src);
  dist[src] = 0;
  // Flat frontier queue: `head` walks the current level while new
  // discoveries append — level boundaries are implicit in the distances.
  std::size_t head = 0;
  while (head < scratch.size()) {
    const NodeId u = scratch[head++];
    const std::uint32_t d = dist[u] + 1;
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] != kUnreached) continue;
      dist[v] = d;
      scratch.push_back(v);
    }
  }
}

namespace {

/// QueryMark label of a removed id (ball indices stay far below it).
constexpr std::uint32_t kRemoved = ~std::uint32_t{0};
/// End of a ball's queue in CsrView::next_.
constexpr std::uint32_t kNoNext = ~std::uint32_t{0};

}  // namespace

std::size_t CsrView::begin_query(std::span<const NodeId> removed) const {
  if (mark_.size() < node_count()) mark_.resize(node_count());
  if (++query_epoch_ == 0) {  // wrapped: stale marks could alias
    std::fill(mark_.begin(), mark_.end(), QueryMark{});
    query_epoch_ = 1;
  }
  std::size_t gone = 0;
  for (const NodeId r : removed) {
    if (!alive(r) || mark_[r].epoch == query_epoch_) continue;
    mark_[r] = {query_epoch_, kRemoved};
    ++gone;
  }
  return gone;
}

bool CsrView::connected_by_bfs(std::size_t survivors) const {
  // Every marked id is removed, and rows hold only alive ids, so "unmarked"
  // is "kept and not yet reached".
  NodeId start = 0;
  while (!alive(start) || mark_[start].epoch == query_epoch_) ++start;
  frontier_.assign(1, start);
  mark_[start] = {query_epoch_, 0};
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    for (const NodeId w : neighbors(frontier_[head])) {
      if (mark_[w].epoch == query_epoch_) continue;
      mark_[w] = {query_epoch_, 0};
      frontier_.push_back(w);
    }
  }
  return frontier_.size() == survivors;
}

std::optional<bool> CsrView::connected_locally(
    std::span<const NodeId> removed) const {
  frontier_.clear();
  next_.clear();
  balls_.clear();
  const auto add_source = [this](NodeId u) {
    if (!alive(u) || mark_[u].epoch == query_epoch_) return;
    const auto b = static_cast<std::uint32_t>(balls_.size());
    const auto at = static_cast<std::uint32_t>(frontier_.size());
    mark_[u] = {query_epoch_, b};
    frontier_.push_back(u);
    next_.push_back(kNoNext);
    balls_.push_back({b, at, at, 1});
  };
  add_source(anchor_);
  for (const NodeId u : pending_) add_source(u);
  for (const NodeId r : removed) {
    if (!alive(r)) continue;
    for (const NodeId w : neighbors(r)) add_source(w);
  }
  if (balls_.empty()) return std::nullopt;

  // Smallest ball first: a small ball grows until it touches another one,
  // and the merged ball waits while the small ones catch up. In an expander
  // each ball then stops once it meets the union of the others, instead of
  // every ball growing to the radius at which the last two meet.
  heap_.clear();
  for (std::uint32_t b = 0; b < balls_.size(); ++b) heap_.emplace_back(1, b);
  std::size_t labels = balls_.size();
  while (labels > 1) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [size, b] = heap_.back();
    heap_.pop_back();
    if (balls_[b].root != b || balls_[b].size != size) continue;  // stale
    // A ball with nothing left to expand is a whole component of the
    // survivors, and some other ball lies outside it.
    if (balls_[b].head == kNoNext) return false;
    grow_ball(b, labels);
    heap_.emplace_back(balls_[b].size, b);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return true;
}

std::uint32_t CsrView::find_ball(std::uint32_t b) const {
  while (balls_[b].root != b) {
    balls_[b].root = balls_[balls_[b].root].root;  // path halving
    b = balls_[b].root;
  }
  return b;
}

void CsrView::grow_ball(std::uint32_t b, std::size_t& labels) const {
  Ball& ball = balls_[b];
  const std::uint32_t limit = heap_.empty() ? ~std::uint32_t{0}
                                            : heap_.front().first;
  while (ball.head != kNoNext && ball.size <= limit) {
    const std::uint32_t at = ball.head;
    ball.head = next_[at];
    for (const NodeId w : neighbors(frontier_[at])) {
      QueryMark& m = mark_[w];
      if (m.epoch != query_epoch_) {  // new: queue it in this ball
        const auto idx = static_cast<std::uint32_t>(frontier_.size());
        m = {query_epoch_, b};
        frontier_.push_back(w);
        next_.push_back(kNoNext);
        if (ball.head == kNoNext) {
          ball.head = idx;
        } else {
          next_[ball.tail] = idx;
        }
        ball.tail = idx;
        ++ball.size;
        continue;
      }
      if (m.label == kRemoved) continue;
      const std::uint32_t other = find_ball(m.label);
      if (other == b) continue;
      // Absorb the other ball: its queue joins the end of this one.
      Ball& o = balls_[other];
      if (o.head != kNoNext) {
        if (ball.head == kNoNext) {
          ball.head = o.head;
        } else {
          next_[ball.tail] = o.head;
        }
        ball.tail = o.tail;
      }
      ball.size += o.size;
      o.root = b;
      if (--labels == 1) return;
    }
  }
}

void CsrView::certify_if_attached(std::span<const NodeId> removed) const {
  NodeId kept = kInvalidNode;
  for (const NodeId r : removed) {
    if (!alive(r)) continue;
    bool attached = false;
    for (const NodeId w : neighbors(r)) {
      if (mark_[w].epoch == query_epoch_ && mark_[w].label == kRemoved) {
        continue;
      }
      attached = true;
      kept = w;
      break;
    }
    if (!attached) return;
  }
  if (kept == kInvalidNode) {  // nothing removed: any alive node anchors
    kept = 0;
    while (kept < node_count() && !alive(kept)) ++kept;
    if (kept == node_count()) return;
  }
  certified_ = true;
  anchor_ = kept;
  pending_.clear();
}

bool CsrView::answered(std::span<const NodeId> removed) const {
  return last_valid_ && std::equal(removed.begin(), removed.end(),
                                   last_removed_.begin(), last_removed_.end());
}

bool survivors_connected(const CsrView& g, std::span<const NodeId> removed) {
  // det: opt-in debug gate (DEX_CHECK_CSR) — adds a cross-check, never
  // changes an answer or an emitted byte.
  static const bool check = std::getenv("DEX_CHECK_CSR") != nullptr;
  const auto check_against_bfs = [&g, removed](bool connected,
                                               const char* what) {
    const std::size_t survivors = g.alive_count() - g.begin_query(removed);
    const bool bfs = survivors <= 1 || g.connected_by_bfs(survivors);
    DEX_ASSERT_MSG(bfs == connected, what);
  };
  if (g.answered(removed)) {
    if (check) {
      check_against_bfs(
          g.last_connected_,
          "remembered connectivity answer disagrees with the BFS");
    }
    return g.last_connected_;
  }
  const std::size_t survivors = g.alive_count() - g.begin_query(removed);
  bool connected = true;
  if (survivors > 1) {
    const std::optional<bool> local =
        g.certified_ ? g.connected_locally(removed) : std::nullopt;
    if (!local) {
      connected = g.connected_by_bfs(survivors);
    } else {
      connected = *local;
      if (check) {
        check_against_bfs(connected,
                          "local connectivity check disagrees with the BFS");
      }
    }
  }
  if (connected) g.certify_if_attached(removed);
  g.last_removed_.assign(removed.begin(), removed.end());
  g.last_connected_ = connected;
  g.last_valid_ = true;
  return connected;
}

std::vector<NodeId> csr_shortest_path(const CsrView& g, NodeId src,
                                      NodeId dst) {
  if (src == dst) return {src};
  if (!g.alive(src) || !g.alive(dst)) return {};
  // Parent pointers in discovery order; identical tie-breaks to the
  // Multigraph BFS (ports scanned in source order).
  std::vector<NodeId> parent(g.node_count(), kInvalidNode);
  std::vector<NodeId> queue{src};
  parent[src] = src;
  std::size_t head = 0;
  while (head < queue.size() && parent[dst] == kInvalidNode) {
    const NodeId u = queue[head++];
    for (const NodeId v : g.neighbors(u)) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      queue.push_back(v);
    }
  }
  if (parent[dst] == kInvalidNode) return {};
  std::vector<NodeId> path{dst};
  for (NodeId u = dst; u != src; u = parent[u]) path.push_back(parent[u]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace dex::graph
