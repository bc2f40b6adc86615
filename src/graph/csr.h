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
/// order for build(), live_ports order for build_from_ports()/apply_delta()
/// — and the two differ on most rows, so a view is patched only by the
/// enumerator that built it (AdversaryView tracks this). Every consumer is
/// row-order-independent, which keeps the switch out of the emitted bytes:
/// the traffic layer's distances, path lengths, reach sums and sorted region
/// sets; the strategies and survivors_connected, which only count; and
/// spectral_gap/sweep_cut, whose matvec adds into each target in source-id
/// order with one value per source, and whose sweep counts cut edges.

#include <cstdint>
#include <functional>
#include <span>
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
  /// alive). Buffers are reused across calls — building once per step in a
  /// long scenario settles into zero allocations.
  void build(const Multigraph& g, const std::vector<bool>& alive);

  /// Rebuilds from a live-ports enumerator over `alive` (the overlay's own
  /// adjacency surface — no Multigraph materialization). Rows land in id
  /// order with no slack; the canonical order is whatever `ports` emits.
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

 private:
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
};

/// BFS distances from `src` over the live view, written into `dist`
/// (resized to node_count(), kUnreached for unreachable or dead nodes).
/// `scratch` is the frontier queue, reused across calls. Discovery order
/// matches graph::bfs_distances on the source Multigraph exactly.
void csr_bfs_fill(const CsrView& g, NodeId src, std::vector<std::uint32_t>& dist,
                  std::vector<NodeId>& scratch);

/// Whether the alive nodes outside `removed` (short mask = kept) are
/// mutually reachable — the one connectivity check behind the §5-safe victim
/// sampler, DEX's batch precondition and is_connected.
[[nodiscard]] bool survivors_connected(const CsrView& g,
                                       const std::vector<bool>& removed = {});

/// BFS shortest path src -> dst inclusive of both endpoints ({src} when
/// src == dst, empty when unreachable or either endpoint is dead). Parent
/// choices follow port order, matching the Multigraph BFS route default.
[[nodiscard]] std::vector<NodeId> csr_shortest_path(const CsrView& g,
                                                    NodeId src, NodeId dst);

}  // namespace dex::graph
