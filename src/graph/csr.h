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
/// instead of a BFS over every node. While certified it keeps a spanning
/// forest, one parent id per alive node. A root is its own parent; any
/// other node's parent is alive and in its row (the tree edge is in the
/// view), and following parents always ends at a root. The roots are the
/// anchor and the *orphans* in the pending list: ids born since, rows whose
/// tree edge a patch removed, and removed ids a true answer left alive.
///
/// Why the local check is exact. Take a query with removed set R and follow
/// the parents up from a survivor s: the walk reaches the anchor, or an
/// orphan, or a tree child of R just before it would enter R. Call that
/// node s's top. Survivors with the same top form one *piece*, joined by
/// tree edges alone: the anchor's piece, and one *fragment* per top that is
/// a surviving orphan or a surviving tree child of R. So the survivors are
/// connected iff the non-tree edges join every fragment to the anchor's
/// piece, and only fragments need growing. A fragment queues its top. Each
/// neighbor of a node it expands is labelled by walking up the parents to
/// the first labelled node (R, the anchor's side or a fragment); the walk's
/// nodes take that label, and join that fragment's queue unless it already
/// reached the anchor's side, since a fragment's tree children are among its
/// nodes' neighbors. Fragments that meet join by union-find, smallest first.
/// The answer is true once all of them have joined the anchor's side. It is
/// false once a joined set has nothing left to expand: every neighbor of
/// every node in it lies in the set or in R, so the set is a whole
/// component of the survivors, and the anchor is outside it. Lifecycle:
///
///  * build() / build_from_ports() reset it to "unknown".
///  * A full BFS that answers true keeps its BFS tree, rooted at its start
///    node, and certifies the view; one that answers false changes nothing,
///    nor does the trivial answer for at most one survivor.
///  * A true local answer hangs each fragment back on the tree through the
///    edge that joined it: the parents from that edge's endpoint up to the
///    fragment's top are reversed. Either true answer then lists the alive
///    removed ids as orphans, so the certificate holds whether they die in
///    the next patch or survive it.
///  * While certified, apply_delta() lists a born id, and a rewritten row
///    whose tree edge is gone, as an orphan. When the anchor dies a
///    surviving orphan takes over (every surviving root is one). Once the
///    pending list outgrows alive_count() the certificate is dropped.
///  * A removed anchor sends the query to the BFS. So does a spent work
///    budget: the nodes expanded plus walk steps since the tree was built
///    may not exceed alive_count(), and past it a BFS rebuilds the tree.
///    Hanging fragments lets the tree grow deep; the budget bounds that
///    decay, so a query costs at most about two full BFS passes.
///
/// The view also remembers its last survivors_connected answer: the
/// removed ids, in order, and the bool. Asking the same question again
/// before the next build or patch costs O(|removed|) — the §5 sampler and
/// DEX's batch preflight ask exactly the same one each step. The repeat
/// leaves the tree as it is.

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

  /// The root of the certified spanning tree (kInvalidNode when the view
  /// is not certified). A query that removes it is answered by a full BFS.
  [[nodiscard]] NodeId anchor() const { return anchor_; }

  /// Deterministic work counters of survivors_connected on this view, since
  /// it was constructed (builds do not reset them).
  struct ConnectivityWork {
    std::uint64_t bfs = 0;    ///< queries answered by a full BFS
    std::uint64_t local = 0;  ///< queries answered from the tree
    /// Nodes the local queries expanded plus their tree-walk steps (a
    /// query the work budget cuts short adds its work here too).
    std::uint64_t local_work = 0;
    /// Full BFS runs on a certified view whose work budget was spent.
    std::uint64_t rebuilds = 0;
  };
  [[nodiscard]] const ConnectivityWork& connectivity_work() const {
    return work_;
  }

 private:
  friend bool survivors_connected(const CsrView& g,
                                  std::span<const NodeId> removed);

  /// Opens a survivors_connected query: a fresh epoch in the query marks,
  /// with every alive id of `removed` marked removed. Returns how many
  /// alive ids were removed (duplicates count once).
  std::size_t begin_query(std::span<const NodeId> removed) const;
  /// Full BFS over the kept nodes of the open query. Each reached node's
  /// label is its BFS parent (the start's is itself), for adopt_bfs_tree.
  bool connected_by_bfs(std::size_t survivors) const;
  /// Grows the fragments of the open query (see the file comment); nullopt
  /// when the anchor is removed or the work budget is spent (the caller
  /// falls back to the BFS).
  std::optional<bool> connected_locally(std::span<const NodeId> removed) const;
  /// Expands fragment set `b` (a union-find root) one node at a time while
  /// it is no larger than the smallest set waiting in the heap, joining
  /// every set it touches and counting `labels` down (it stops at 1, or
  /// once `b` joins the anchor's side).
  void grow_ball(std::uint32_t b, std::size_t& labels) const;
  [[nodiscard]] std::uint32_t find_ball(std::uint32_t b) const;
  /// The label of kept node `w`, walking up its parents to the first
  /// labelled node and labelling every node on the way (see the file
  /// comment). Returns kRemoved for a removed id.
  std::uint32_t classify(NodeId w) const;
  /// After a true local answer: hangs every fragment back on the tree
  /// through the edge that joined it (hooks_), then parks `removed`.
  void hang_fragments(std::span<const NodeId> removed) const;
  /// After a true BFS answer: its BFS tree becomes the certified tree.
  void adopt_bfs_tree(std::span<const NodeId> removed) const;
  /// The pending list becomes the alive ids of `removed`, each its own root.
  void park_removed(std::span<const NodeId> removed) const;
  /// Back to "unknown": no anchor, no pending roots.
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
  // safe for concurrent queries on one view. Every buffer keeps its
  // capacity across queries, builds and patches.
  mutable bool certified_ = false;
  mutable NodeId anchor_ = kInvalidNode;  ///< the root of the anchor's tree
  mutable std::vector<NodeId> pending_;   ///< orphan roots (may repeat)
  /// Tree parent per id while certified (the root's is itself); allocated
  /// by the first certificate and grown with the id space after it, stale
  /// for dead ids.
  mutable std::vector<NodeId> parent_;
  /// Nodes expanded plus walk steps since the tree was built (the budget).
  mutable std::size_t tree_work_ = 0;
  mutable ConnectivityWork work_;
  /// The last survivors_connected query since the last build or patch.
  mutable bool last_valid_ = false;
  mutable bool last_connected_ = false;
  mutable std::vector<NodeId> last_removed_;
  /// Per-id query state: epoch == query_epoch_ means u was removed or
  /// labelled in the open query, told apart by label (the fragment it
  /// belongs to, kAnchorSide, or kRemoved; a BFS parent in the BFS). Side by
  /// side so a visit costs one cache line; allocated on the first query, so
  /// no query clears O(n) memory.
  struct QueryMark {
    std::uint32_t epoch = 0;
    std::uint32_t label = 0;
  };
  mutable std::vector<QueryMark> mark_;
  mutable std::uint32_t query_epoch_ = 0;
  /// Labelled ids in labelling order: the BFS queue, and for the local
  /// check the storage of every fragment set's queue.
  mutable std::vector<NodeId> frontier_;
  /// frontier_ index of the next id in the same set's queue (or kNoNext);
  /// linked lists, so joining two sets' queues is O(1).
  mutable std::vector<std::uint32_t> next_;
  /// One per fragment, indexed by label; ball 0 is the anchor's side.
  struct Ball {
    std::uint32_t root;  ///< union-find parent
    std::uint32_t head;  ///< frontier_ index of the next id to expand
    std::uint32_t tail;  ///< frontier_ index of the last id queued
    std::uint32_t size;  ///< ids labelled, joined fragments included
    NodeId top;          ///< the fragment's top (the anchor for ball 0)
  };
  mutable std::vector<Ball> balls_;
  /// Min-heap of (size, ball) — entries go stale when a set grows or
  /// joins another, and are skipped when popped. hang_fragments reuses it
  /// as its queue of (fragment, hook it was hung by).
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> heap_;
  /// The edges (expanded node, classified neighbor) that joined two sets,
  /// in joining order; a true answer has one per fragment.
  mutable std::vector<std::pair<NodeId, NodeId>> hooks_;
  /// hang_fragments' adjacency of the fragment tree: hook ids by label,
  /// hook_adj_[hook_at_[f] .. hook_at_[f + 1]).
  mutable std::vector<std::uint32_t> hook_at_;
  mutable std::vector<std::uint32_t> hook_adj_;
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
/// is_connected. On a certified view (see CsrView) it grows only the
/// fragments the removal and the last patches cut off the view's spanning
/// tree, classifying their neighbors by walking up the tree, and joins them
/// with union-find, smallest first. It stops once every fragment has joined
/// the anchor's side (connected) or at a joined set with nothing left to
/// expand (a whole component without the anchor: not connected), so its
/// cost follows the churn delta, not n. Otherwise it runs a full BFS, whose
/// tree certifies the view when it answers true. Counting the survivors
/// costs O(|removed|). A repeat of the previous query on an unchanged view
/// is answered from memory in O(|removed|). The answer is the same bool
/// every way; DEX_CHECK_CSR=1 asserts every local or remembered answer
/// against the full BFS.
[[nodiscard]] bool survivors_connected(const CsrView& g,
                                       std::span<const NodeId> removed = {});

/// BFS shortest path src -> dst inclusive of both endpoints ({src} when
/// src == dst, empty when unreachable or either endpoint is dead). Parent
/// choices follow port order, matching the Multigraph BFS route default.
[[nodiscard]] std::vector<NodeId> csr_shortest_path(const CsrView& g,
                                                    NodeId src, NodeId dst);

}  // namespace dex::graph
