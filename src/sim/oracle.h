#pragma once

/// \file oracle.h
/// DistanceOracle — the per-step route/placement oracle behind the traffic
/// layer's hop accounting. Serving one key-value op used to cost a fresh
/// O(n + m) BFS over the live view (twice on DEX: once for the realized
/// path, once for the BFS optimum), which is fine at n = 1000 and unusable
/// at the populations where the paper's O(log n) claims get interesting.
///
/// Its answers are exact BFS distances, whichever way they are computed —
/// the property tests pin them against graph::bfs_distances across all six
/// backends. A point query is a meet-in-the-middle probe: two balls, around
/// each endpoint, grow a whole level at a time (smaller frontier first)
/// until one discovers a vertex of the other, which on an expander stops
/// both at radius ~diam/2, ~O(sqrt n) vertices instead of the O(n + m) a
/// full frontier costs. A ball is a membership bit per node (n/8 bytes) and
/// the list of nodes it reached, which the probe clears its bits from
/// before it returns; no depths are kept, since the vertex where the balls
/// meet always sits at the other ball's full radius.
///
/// Full single-source vectors are still needed where re-homing prices an
/// orphaned key (its old host died): the charge is the mean distance from
/// the new home to every survivor. A handover (the old host survived) is
/// one point query. from() and reach() memoize the full vectors over the
/// step's CsrView (graph/csr.h), keyed by root, in a small FIFO ring of
/// reusable slots; distance() answers from a memoized root whenever either
/// endpoint is one, and otherwise takes exactly one probe. Eviction affects
/// only speed.
///
/// The owner (sim::KvStore) calls attach() once per churn step with the
/// step's frozen CsrView; attach clears the memo (the topology changed) but
/// keeps the slot buffers, so steady state runs allocation-free.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace dex::sim {

class DistanceOracle {
 public:
  /// Memoized single-source vectors kept per step. Beyond this, the oldest
  /// root is evicted (FIFO); correctness is unaffected.
  static constexpr std::size_t kMaxRoots = 32;

  /// Points the oracle at the step's live view and clears the memo. The
  /// view is borrowed: it must stay alive and unchanged until the next
  /// attach() (sim::KvStore re-attaches on every sync()).
  void attach(const graph::CsrView& view);

  /// Exact BFS distance between u and v on the attached view
  /// (graph::kUnreached when disconnected or either endpoint is dead).
  /// Free when either endpoint is a root memoized by from()/reach();
  /// otherwise one two-sided probe (one bfs_runs()), memoizing nothing.
  [[nodiscard]] std::uint32_t distance(graph::NodeId u, graph::NodeId v);

  /// The full distance vector from `src` (memoizing it as a root). Used by
  /// the re-homing transfer pricing of a new home that receives an orphaned
  /// key, which needs every survivor's distance.
  /// Lifetime: the reference stays valid (and keeps meaning `src`) only
  /// until the next from()/reach() on a new root — which may recycle the
  /// slot — or attach(). Read it before materializing another root.
  [[nodiscard]] const std::vector<std::uint32_t>& from(graph::NodeId src);

  /// Sum/count of finite distances from `src` over the alive set (the
  /// expected-recovery-pull mean used by KvStore::sync), computed once per
  /// root and cached with it.
  struct Reach {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Reach reach(graph::NodeId src);

  /// BFS runs (probes + full frontiers) since attach(); exposed so tests
  /// can pin the cost contract above.
  [[nodiscard]] std::uint64_t bfs_runs() const { return bfs_runs_; }

 private:
  struct Slot {
    graph::NodeId root = graph::kInvalidNode;
    std::vector<std::uint32_t> dist;
    Reach reach;
    bool reach_done = false;
  };

  [[nodiscard]] Slot* find(graph::NodeId root);
  [[nodiscard]] Slot& materialize(graph::NodeId root);
  /// Meet-in-the-middle BFS between src and dst over bit-set balls (no
  /// O(n) clear, no memo entry).
  [[nodiscard]] std::uint32_t probe(graph::NodeId src, graph::NodeId dst);
  /// The search behind probe(): grows the balls until they meet.
  [[nodiscard]] std::uint32_t grow_probe();

  const graph::CsrView* view_ = nullptr;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;  ///< FIFO ring cursor
  std::unordered_map<graph::NodeId, std::size_t> by_root_;
  std::vector<graph::NodeId> scratch_;
  /// probe() scratch, one ball per endpoint: a membership bit per node,
  /// all-zero between probes (the words grow in place with the view), and
  /// every node the ball reached, level by level — its last level,
  /// members[frontier_begin..], is the frontier.
  struct ProbeBall {
    std::vector<std::uint64_t> bits;
    std::vector<graph::NodeId> members;
    std::size_t frontier_begin = 0;
    std::uint32_t radius = 0;

    [[nodiscard]] std::size_t frontier_size() const {
      return members.size() - frontier_begin;
    }
  };
  ProbeBall probe_[2];
  std::uint64_t bfs_runs_ = 0;
};

}  // namespace dex::sim
