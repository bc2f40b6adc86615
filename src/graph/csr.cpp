#include "graph/csr.h"

#include <algorithm>

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
  };
  for (const NodeId u : touch_scratch_) touch(u);
  for (const NodeId u : d.dirty) touch(u);

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
