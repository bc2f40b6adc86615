#include "graph/csr.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "graph/bfs.h"
#include "support/assert.h"

namespace dex::graph {

void CsrView::build(const Multigraph& g, const std::vector<bool>& alive) {
  std::vector<bool> everyone;
  if (alive.empty()) everyone.assign(g.node_count(), true);
  const std::vector<bool>& mask = alive.empty() ? everyone : alive;
  DEX_ASSERT_MSG(mask.size() == g.node_count(),
                 "alive mask must cover the graph");
  build_from_ports(mask, [&g, &mask](NodeId u, std::vector<NodeId>& out) {
    for (const NodeId v : g.ports(u)) {
      if (mask[v]) out.push_back(v);
    }
  });
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
  if (!parent_.empty()) parent_.resize(n, kInvalidNode);
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
    if (certified_) {  // a new root, outside the tree
      parent_[u] = u;
      pending_.push_back(u);
    }
  }

  const auto touch = [&](NodeId u) {
    if (u >= alive_.size() || !alive_[u]) return;  // died above or stale
    if (stamp_[u] == epoch_) return;
    stamp_[u] = epoch_;
    rewrite_row(u, ports);
    if (!certified_ || parent_[u] == u) return;
    // A dead parent is gone from the fresh row too.
    const auto row = neighbors(u);
    if (std::find(row.begin(), row.end(), parent_[u]) != row.end()) return;
    parent_[u] = u;  // the tree edge is gone: u roots an orphan fragment
    pending_.push_back(u);
  };
  for (const NodeId u : touch_scratch_) touch(u);
  for (const NodeId u : d.dirty) touch(u);
  if (certified_ && !alive(anchor_)) {
    // Any surviving root can anchor, and the old anchor's orphaned children
    // are among them.
    const auto root = std::find_if(
        pending_.begin(), pending_.end(),
        [this](NodeId u) { return alive(u) && parent_[u] == u; });
    if (root == pending_.end()) {
      drop_certificate();  // nothing survives
    } else {
      anchor_ = *root;
    }
  }
  // Dead orphans stay listed until the next true answer; past alive_count()
  // entries the list is mostly waste.
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

/// QueryMark label of a removed id (fragment labels stay far below it).
constexpr std::uint32_t kRemoved = ~std::uint32_t{0};
/// QueryMark label and ball of the anchor's side in a local query.
constexpr std::uint32_t kAnchorSide = 0;
/// End of a fragment set's queue in CsrView::next_.
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
  mark_[start] = {query_epoch_, start};
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const NodeId u = frontier_[head];
    for (const NodeId w : neighbors(u)) {
      if (mark_[w].epoch == query_epoch_) continue;
      mark_[w] = {query_epoch_, u};
      frontier_.push_back(w);
    }
  }
  return frontier_.size() == survivors;
}

std::optional<bool> CsrView::connected_locally(
    std::span<const NodeId> removed) const {
  if (!alive(anchor_) || mark_[anchor_].epoch == query_epoch_ ||
      tree_work_ > alive_count_) {
    return std::nullopt;  // the anchor is removed, or the budget is spent
  }
  frontier_.clear();
  next_.clear();
  balls_.clear();
  hooks_.clear();
  mark_[anchor_] = {query_epoch_, kAnchorSide};
  balls_.push_back({kAnchorSide, kNoNext, kNoNext, 1, anchor_});
  const auto add_top = [this](NodeId u) {
    if (mark_[u].epoch == query_epoch_) return;  // removed, or listed twice
    const auto b = static_cast<std::uint32_t>(balls_.size());
    const auto at = static_cast<std::uint32_t>(frontier_.size());
    mark_[u] = {query_epoch_, b};
    frontier_.push_back(u);
    next_.push_back(kNoNext);
    balls_.push_back({b, at, at, 1, u});
  };
  for (const NodeId u : pending_) {
    if (alive(u) && parent_[u] == u) add_top(u);
  }
  for (const NodeId r : removed) {
    if (!alive(r)) continue;
    for (const NodeId w : neighbors(r)) {
      if (parent_[w] == r) add_top(w);
    }
  }

  // Smallest set first: most fragments are a few nodes whose first
  // neighbors already walk up to the anchor, and a big one waits until the
  // small ones have joined it or the anchor's side.
  heap_.clear();
  for (std::uint32_t b = 1; b < balls_.size(); ++b) heap_.emplace_back(1, b);
  std::size_t labels = balls_.size();
  while (labels > 1) {
    if (tree_work_ > alive_count_) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [size, b] = heap_.back();
    heap_.pop_back();
    if (balls_[b].root != b || balls_[b].size != size) continue;  // stale
    // A set with nothing left to expand is a whole component of the
    // survivors, and the anchor lies outside it.
    if (balls_[b].head == kNoNext) return false;
    grow_ball(b, labels);
    if (balls_[b].root != b) continue;  // joined the anchor's side
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

std::uint32_t CsrView::classify(NodeId w) const {
  NodeId top = w;
  while (mark_[top].epoch != query_epoch_) {
    DEX_ASSERT_MSG(parent_[top] != top,
                   "tree walk reached an unlisted root");
    top = parent_[top];
  }
  const std::uint32_t label = mark_[top].label;
  if (top == w) return label;
  DEX_ASSERT_MSG(label != kRemoved, "tree walk left through a removed id");
  // Label the walk. Its nodes join the fragment set's queue, unless the set
  // has joined the anchor's side and needs no more expanding.
  const std::uint32_t set = find_ball(label);
  Ball& ball = balls_[set];
  for (NodeId x = w; x != top; x = parent_[x]) {
    ++tree_work_;
    mark_[x] = {query_epoch_, label};
    if (set == kAnchorSide) continue;
    const auto idx = static_cast<std::uint32_t>(frontier_.size());
    frontier_.push_back(x);
    next_.push_back(kNoNext);
    if (ball.head == kNoNext) {
      ball.head = idx;
    } else {
      next_[ball.tail] = idx;
    }
    ball.tail = idx;
    ++ball.size;
  }
  return label;
}

void CsrView::grow_ball(std::uint32_t b, std::size_t& labels) const {
  Ball& ball = balls_[b];
  const std::uint32_t limit = heap_.empty() ? ~std::uint32_t{0}
                                            : heap_.front().first;
  while (ball.head != kNoNext && ball.size <= limit) {
    const std::uint32_t at = ball.head;
    ball.head = next_[at];
    const NodeId u = frontier_[at];
    ++tree_work_;
    for (const NodeId w : neighbors(u)) {
      const std::uint32_t label = classify(w);
      if (label == kRemoved) continue;
      const std::uint32_t other = find_ball(label);
      if (other == b) continue;
      hooks_.emplace_back(u, w);
      --labels;
      if (other == kAnchorSide) {  // joined: nothing more to expand here
        ball.root = kAnchorSide;
        return;
      }
      // Absorb the other set: its queue joins the end of this one.
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
    }
  }
}

void CsrView::hang_fragments(std::span<const NodeId> removed) const {
  // The hooks join the fragments and the anchor's side into one tree;
  // walk it out from the anchor's side, so each fragment is hung from a
  // node already on the certified tree's path to the anchor.
  const std::size_t k = balls_.size();
  hook_at_.assign(k + 1, 0);
  for (const auto& [u, w] : hooks_) {
    ++hook_at_[mark_[u].label + 1];
    ++hook_at_[mark_[w].label + 1];
  }
  for (std::size_t f = 0; f < k; ++f) hook_at_[f + 1] += hook_at_[f];
  hook_adj_.resize(2 * hooks_.size());
  for (std::uint32_t h = 0; h < hooks_.size(); ++h) {
    for (const NodeId x : {hooks_[h].first, hooks_[h].second}) {
      hook_adj_[hook_at_[mark_[x].label]++] = h;
    }
  }
  for (std::size_t f = k; f > 0; --f) hook_at_[f] = hook_at_[f - 1];
  hook_at_[0] = 0;

  heap_.assign(1, {kAnchorSide, kNoNext});
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const auto [f, via] = heap_[i];
    for (std::uint32_t j = hook_at_[f]; j < hook_at_[f + 1]; ++j) {
      const std::uint32_t h = hook_adj_[j];
      if (h == via) continue;
      // Hang fragment g at its end x of the hook: reverse the parents from
      // x up to g's top, and make x's parent the hook's other end.
      NodeId x = hooks_[h].first;
      NodeId prev = hooks_[h].second;
      if (mark_[x].label == f) std::swap(x, prev);
      const std::uint32_t g = mark_[x].label;
      const NodeId top = balls_[g].top;
      for (;;) {
        const NodeId up = parent_[x];
        parent_[x] = prev;
        if (x == top) break;
        prev = x;
        x = up;
      }
      heap_.emplace_back(g, h);
    }
  }
  park_removed(removed);
}

void CsrView::adopt_bfs_tree(std::span<const NodeId> removed) const {
  // Ids are never reused, so a maintained view's id space grows with every
  // birth; room for twice the first size spares the early regrowths, each
  // of which holds two copies of the array at once.
  if (parent_.empty()) parent_.reserve(2 * node_count());
  if (parent_.size() < node_count()) parent_.resize(node_count());
  for (const NodeId u : frontier_) parent_[u] = mark_[u].label;
  certified_ = true;
  anchor_ = frontier_.front();
  tree_work_ = 0;
  park_removed(removed);
}

void CsrView::park_removed(std::span<const NodeId> removed) const {
  pending_.clear();
  for (const NodeId r : removed) {
    if (!alive(r)) continue;
    parent_[r] = r;
    pending_.push_back(r);
  }
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
    std::optional<bool> local;
    if (g.certified_) {
      const std::size_t work_before = g.tree_work_;
      local = g.connected_locally(removed);
      g.work_.local_work += g.tree_work_ - work_before;
    }
    if (local) {
      connected = *local;
      ++g.work_.local;
      if (connected) g.hang_fragments(removed);
      if (check) {
        check_against_bfs(connected,
                          "local connectivity check disagrees with the BFS");
      }
    } else {
      if (g.certified_) {
        if (g.tree_work_ > g.alive_count()) ++g.work_.rebuilds;
        g.begin_query(removed);  // drop the local attempt's labels
      }
      connected = g.connected_by_bfs(survivors);
      ++g.work_.bfs;
      if (connected) g.adopt_bfs_tree(removed);
    }
  }
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
