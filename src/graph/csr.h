#pragma once

/// \file csr.h
/// CsrView — a flat compressed-sparse-row view of the *live* part of an
/// overlay topology. The traffic hot path (sim/workload.h, sim/oracle.h)
/// walks adjacency thousands of times per churn step; doing that over the
/// vector-of-vectors Multigraph plus a vector<bool> aliveness check per port
/// is cache-hostile and re-pays the dead-node filter on every hop. A
/// CsrView bakes the filter in at build time: dead nodes get an empty row,
/// edges to dead endpoints are dropped, and what remains is flat arrays a
/// BFS can stream through.
///
/// Two ways to get one:
///
///  * build() / build_from_ports() — one O(n + m) pass from a Multigraph
///    snapshot or a per-node live-ports enumerator.
///  * apply_delta() — the incremental path: given a ViewDelta (the ids a
///    churn step touched, reported by the overlay's journal), only the
///    affected rows are re-enumerated and patched in place. Per-step cost
///    is proportional to the churn delta, not the population — the
///    difference between 100k and 1M+ node sweeps.
///
/// The patcher is idempotent: re-writing a row whose adjacency did not
/// change reproduces it byte-for-byte in place, so a superset of the truly
/// dirty ids (or a stale delta re-applied after a full rebuild) is always
/// safe. equal_to() gives the semantic comparison the debug cross-check
/// (DEX_CHECK_CSR=1) and the property tests pin the patcher against.
///
/// The row contract: an alive node's row is its masked snapshot row as a
/// multiset (self-loops and multi-edges kept), so its length is the snapshot
/// degree. Row order is whatever the producer enumerated — Multigraph port
/// order for build(), the PortsFn's order for build_from_ports() and
/// apply_delta(), which must be the one that built the view. The run loop's
/// view (AdversaryView) only ever uses HealingOverlay::live_ports. Every
/// consumer is row-order-independent anyway: the traffic layer's distances,
/// path lengths, reach sums and sorted region sets; the strategies and
/// survivors_connected, which only count; and spectral_gap/sweep_cut, whose
/// matvec adds into each target in source-id order with one value per
/// source, and whose sweep counts cut edges.
///
/// The connectivity certificate. A view also remembers whether it is known
/// to be connected, so survivors_connected can answer from the churn delta
/// instead of a BFS over every node. The fact behind it: let H be a
/// connected graph and H' be H after some nodes and edges are removed and
/// some nodes attached. Call a survivor *touched* when its row changed or it
/// was born. Then H' is connected iff its touched nodes and one fixed node
/// of H (the anchor, while it survives) lie in one component C of H'. Any
/// other component has no touched node, so it keeps its H adjacency and is
/// closed in H; H is connected, so that component holds all of H, the
/// anchor included — but the anchor lies in C. For a query, H' is the
/// current view minus the removed ids, and the touched nodes are the
/// pending list plus the kept neighbors of the removed ids. Lifecycle:
///
///  * build() / build_from_ports() reset it to "unknown".
///  * survivors_connected(R) certifies the view when its answer is true and
///    every removed node keeps a surviving neighbor (then the view itself
///    is connected): it records an anchor and empties the pending list.
///  * While certified, apply_delta() appends every row it rewrites (born
///    ids, dirty ids, neighbors of the dead) to the pending list. Once the
///    list outgrows alive_count() the certificate is dropped — a full BFS
///    is cheaper than growing balls from that many sources.
///
/// The view also remembers its last survivors_connected answer: the
/// removed ids, in order, and the bool. Asking the same question again
/// before the next build or patch costs O(|removed|) — the §5 sampler and
/// DEX's batch preflight ask exactly the same one each step. The repeat
/// leaves the certificate as it is: the first query already certified the
/// view if it could.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/multigraph.h"

namespace dex::graph {

/// The ids one churn step touched, as reported by an overlay's delta
/// journal (HealingOverlay::drain_view_delta). `born`/`died` are liveness
/// transitions; `dirty` lists alive ids whose adjacency may have changed
/// (duplicates and already-covered ids are fine — the patcher dedups).
/// `full` means "history unknown, rebuild from scratch": the journal
/// overflowed, a wholesale remap happened (DEX type-2), or tracking just
/// started.
struct ViewDelta {
  bool full = false;
  std::vector<NodeId> born;
  std::vector<NodeId> died;
  std::vector<NodeId> dirty;

  void clear() {
    full = false;
    born.clear();
    died.clear();
    dirty.clear();
  }
  /// Collapse to "rebuild everything" — precise lists are pointless then.
  void mark_full() {
    full = true;
    born.clear();
    died.clear();
    dirty.clear();
  }
  [[nodiscard]] bool empty() const {
    return !full && born.empty() && died.empty() && dirty.empty();
  }
};

class CsrView {
 public:
  /// Fills `out` with the current live neighbors of an alive node, in the
  /// producer's canonical order (dead endpoints must already be excluded).
  using PortsFn = std::function<void(NodeId, std::vector<NodeId>&)>;

  /// Rebuilds from `g` restricted to `alive` (empty mask = everything
  /// alive): build_from_ports over `g.ports(u)` in port order, dead
  /// endpoints dropped.
  void build(const Multigraph& g, const std::vector<bool>& alive);

  /// Rebuilds from a live-ports enumerator over `alive` (the overlay's own
  /// adjacency surface — no Multigraph materialization). Rows land in id
  /// order with no slack; the canonical order is whatever `ports` emits.
  /// Buffers are reused across calls — building once per step in a long
  /// scenario settles into zero allocations.
  void build_from_ports(const std::vector<bool>& alive, const PortsFn& ports);

  /// Patches the view in place: `d.died` rows are emptied (their old
  /// neighbors are re-enumerated automatically — the journal need not list
  /// them), `d.born` ids become alive, and every dirty id's row is
  /// re-enumerated via `ports`. Rows that shrink or keep their length are
  /// rewritten in place; rows that grow relocate to the arena tail, and the
  /// abandoned slack is compacted away once it exceeds the live edge count.
  /// Requires a prior build_from_ports()/apply_delta() with the same
  /// canonical `ports` order; d.full is the caller's job to handle (assert).
  void apply_delta(const ViewDelta& d, const PortsFn& ports);

  /// Semantic equality: same aliveness and the same neighbor sequence for
  /// every alive id (row placement in the arena is irrelevant; trailing
  /// all-dead capacity is ignored). The contract the incremental path is
  /// tested against.
  [[nodiscard]] bool equal_to(const CsrView& other) const;

  /// Id capacity (same id space as the source).
  [[nodiscard]] std::size_t node_count() const { return row_len_.size(); }

  [[nodiscard]] bool alive(NodeId u) const {
    return u < alive_.size() && alive_[u] != 0;
  }

  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  /// Live neighbors of u, in the producer's port order (duplicates kept —
  /// multi-edges stay multi). Empty for dead or out-of-range ids.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    if (u >= node_count()) return {};
    return {edges_.data() + row_start_[u],
            static_cast<std::size_t>(row_len_[u])};
  }

  /// Whether any build has run at least once.
  [[nodiscard]] bool built() const { return built_; }

  /// Whether the view carries a connectivity certificate (see the file
  /// comment), i.e. whether survivors_connected answers locally.
  [[nodiscard]] bool certified() const { return certified_; }

 private:
  friend bool survivors_connected(const CsrView& g,
                                  std::span<const NodeId> removed);

  /// Opens a survivors_connected query: a fresh epoch in the query marks,
  /// with every alive id of `removed` marked removed. Returns how many
  /// alive ids were removed (duplicates count once).
  std::size_t begin_query(std::span<const NodeId> removed) const;
  /// Full BFS over the kept nodes of the open query.
  bool connected_by_bfs(std::size_t survivors) const;
  /// Grows balls from the pending sources, the anchor and the kept
  /// neighbors of `removed`; nullopt when there is no source (the caller
  /// falls back to the BFS).
  std::optional<bool> connected_locally(std::span<const NodeId> removed) const;
  /// Expands ball `b` (a union-find root) one vertex at a time while it is
  /// no larger than the smallest ball waiting in the heap, merging every
  /// ball it touches into itself and counting `labels` down (it stops at 1).
  void grow_ball(std::uint32_t b, std::size_t& labels) const;
  [[nodiscard]] std::uint32_t find_ball(std::uint32_t b) const;
  /// Certifies the view when every alive removed id of the open query has
  /// a kept neighbor (called only after a connected answer).
  void certify_if_attached(std::span<const NodeId> removed) const;
  /// Back to "unknown": no anchor, no pending sources.
  void drop_certificate() const;
  /// Whether the last answer was to exactly `removed` (same ids, same
  /// order) on the view as it stands.
  [[nodiscard]] bool answered(std::span<const NodeId> removed) const;

  void ensure_capacity(NodeId id);
  /// Re-enumerates u's row via `ports` and writes it in place or at the
  /// arena tail (see apply_delta).
  void rewrite_row(NodeId u, const PortsFn& ports);
  /// Rebuilds the arena in id order, dropping the abandoned slack.
  void compact();

  std::vector<std::uint32_t> row_start_;  ///< arena offset per id
  std::vector<std::uint32_t> row_len_;    ///< live ports per id
  std::vector<NodeId> edges_;             ///< row arena (relocatable rows)
  std::vector<std::uint8_t> alive_;       ///< byte mask (faster than bits)
  std::size_t alive_count_ = 0;
  std::size_t live_edge_count_ = 0;  ///< sum of row_len_ over alive ids
  std::size_t garbage_ = 0;          ///< arena slots no row references
  bool built_ = false;
  /// Dirty-id dedup for apply_delta: stamp[u] == epoch marks "already
  /// rewritten this delta" without a per-call clear.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> row_scratch_;    ///< rewrite_row enumeration buffer
  std::vector<NodeId> touch_scratch_;  ///< neighbors-of-the-dead work list

  // Connectivity certificate and query scratch. survivors_connected takes
  // the view by const reference and keeps them up to date, so they are
  // mutable: a cache of a derived fact, never a change to the graph. Not
  // safe for concurrent queries on one view.
  mutable bool certified_ = false;
  mutable NodeId anchor_ = kInvalidNode;  ///< a node of the certified graph
  mutable std::vector<NodeId> pending_;   ///< rows rewritten since then
  /// The last survivors_connected query since the last build or patch.
  mutable bool last_valid_ = false;
  mutable bool last_connected_ = false;
  mutable std::vector<NodeId> last_removed_;
  /// Per-id query state: epoch == query_epoch_ means u was removed or
  /// reached in the open query, told apart by label (the ball it joined,
  /// or kRemoved). Side by side so a visit costs one cache line; allocated on
  /// the first query, so no query clears O(n) memory.
  struct QueryMark {
    std::uint32_t epoch = 0;
    std::uint32_t label = 0;
  };
  mutable std::vector<QueryMark> mark_;
  mutable std::uint32_t query_epoch_ = 0;
  /// Discovered ids in discovery order: the BFS queue, and for the local
  /// check the storage of every ball's queue.
  mutable std::vector<NodeId> frontier_;
  /// frontier_ index of the next id in the same ball's queue (or kNoNext);
  /// linked lists, so merging two balls' queues is O(1).
  mutable std::vector<std::uint32_t> next_;
  struct Ball {
    std::uint32_t root;  ///< union-find parent
    std::uint32_t head;  ///< frontier_ index of the next id to expand
    std::uint32_t tail;  ///< frontier_ index of the last id queued
    std::uint32_t size;  ///< ids discovered, merged balls included
  };
  mutable std::vector<Ball> balls_;
  /// Min-heap of (size, ball) — entries go stale when a ball grows or
  /// merges, and are skipped when popped.
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> heap_;
};

/// BFS distances from `src` over the live view, written into `dist`
/// (resized to node_count(), kUnreached for unreachable or dead nodes).
/// `scratch` is the frontier queue, reused across calls. Discovery order
/// matches graph::bfs_distances on the source Multigraph exactly.
void csr_bfs_fill(const CsrView& g, NodeId src, std::vector<std::uint32_t>& dist,
                  std::vector<NodeId>& scratch);

/// Whether the alive nodes outside `removed` (ids; dead, out-of-range and
/// repeated ids are ignored) are mutually reachable — the one connectivity
/// check behind the §5-safe victim sampler, DEX's batch precondition and
/// is_connected. On a certified view (see CsrView) it grows balls from the
/// pending rows, the anchor and the kept neighbors of `removed`, smallest
/// ball first, and joins two balls with union-find where they meet. It
/// stops at one ball (connected) or at a ball with nothing left to expand
/// (a whole component without the rest: not connected), so its cost
/// follows the churn delta, not n. Otherwise it runs a full BFS. Counting
/// the survivors costs O(|removed|). A true answer with every removed node
/// attached to a survivor certifies the view. A repeat of the previous
/// query on an unchanged view is answered from memory in O(|removed|). The
/// answer is the same bool every way; DEX_CHECK_CSR=1 asserts every local
/// or remembered answer against the full BFS.
[[nodiscard]] bool survivors_connected(const CsrView& g,
                                       std::span<const NodeId> removed = {});

/// BFS shortest path src -> dst inclusive of both endpoints ({src} when
/// src == dst, empty when unreachable or either endpoint is dead). Parent
/// choices follow port order, matching the Multigraph BFS route default.
[[nodiscard]] std::vector<NodeId> csr_shortest_path(const CsrView& g,
                                                    NodeId src, NodeId dst);

}  // namespace dex::graph
