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
/// One full single-source vector is still needed where re-homing prices an
/// orphaned key (its old host died): the charge is the mean distance from
/// the new home to every survivor. A handover (the old host survived) is
/// one point query. reach() fills that vector over the step's CsrView
/// (graph/csr.h) and keeps its source as the one root until reach() runs on
/// another node or attach() runs; distance() answers from the root whenever
/// either endpoint is it, and otherwise takes exactly one probe. KvStore
/// sorts a step's moves by destination, orphans first, so one BFS serves
/// every move onto that home.
///
/// The owner (sim::KvStore) calls attach() once per churn step with the
/// step's frozen CsrView; attach forgets the root (the topology changed)
/// but keeps the buffers, so steady state runs allocation-free.

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace dex::sim {

class DistanceOracle {
 public:
  /// Points the oracle at the step's live view and forgets the root. The
  /// view is borrowed: it must stay alive and unchanged until the next
  /// attach() (sim::KvStore re-attaches on every sync()).
  void attach(const graph::CsrView& view);

  /// Exact BFS distance between u and v on the attached view
  /// (graph::kUnreached when disconnected or either endpoint is dead).
  /// Free when either endpoint is the reach() root; otherwise one
  /// two-sided probe (one bfs_runs()), remembering nothing.
  [[nodiscard]] std::uint32_t distance(graph::NodeId u, graph::NodeId v);

  /// Sum/count of finite distances from `src` over the alive set (the
  /// expected-recovery-pull mean used by KvStore::sync). Makes `src` the
  /// root: one full BFS unless it already is.
  struct Reach {
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Reach reach(graph::NodeId src);

  /// BFS runs (probes + full frontiers) since attach(); exposed so tests
  /// can pin the cost contract above.
  [[nodiscard]] std::uint64_t bfs_runs() const { return bfs_runs_; }

 private:
  /// Meet-in-the-middle BFS between src and dst over bit-set balls (no
  /// O(n) clear, no root change).
  [[nodiscard]] std::uint32_t probe(graph::NodeId src, graph::NodeId dst);
  /// The search behind probe(): grows the balls until they meet.
  [[nodiscard]] std::uint32_t grow_probe();

  const graph::CsrView* view_ = nullptr;
  /// The reach() root, its distance vector and its Reach.
  graph::NodeId root_ = graph::kInvalidNode;
  std::vector<std::uint32_t> dist_;
  Reach reach_;
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
