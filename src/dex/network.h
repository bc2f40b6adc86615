#pragma once

/// \file network.h
/// DexNetwork — the self-healing expander maintenance algorithm of the
/// paper (Algorithms 4.1–4.9), with both recovery flavours:
///
///  * RecoveryMode::Amortized — type-2 recovery via simplifiedInfl /
///    simplifiedDefl (Algorithms 4.5/4.6): the whole virtual graph is
///    replaced in one step (Θ(n) messages / topology changes), amortized
///    over the Ω(n) type-1 steps separating type-2 events (Lemma 8, Cor 1).
///
///  * RecoveryMode::WorstCase — a coordinator (the node simulating vertex 0,
///    Algorithm 4.7) tracks |Spare|, |Low| and n; when a counter crosses
///    3θ·n the rebuild is *staggered* over Θ(n) subsequent steps
///    (Algorithms 4.8/4.9): each step a constant-size group of old vertices
///    builds its part of the next p-cycle (Phase 1), then the old p-cycle is
///    discarded group by group (Phase 2). Every step costs O(log n) rounds
///    and messages and O(1) topology changes (Theorem 1, Lemma 9).
///
/// The network exposes exactly the adversary interface of §2: insert one
/// node attached to an arbitrary existing node, or delete one arbitrary
/// node; the algorithm repairs before the next step.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dex/index_maps.h"
#include "dex/mapping.h"
#include "dex/pcycle.h"
#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/meters.h"
#include "support/prng.h"

namespace dex {

enum class RecoveryMode { Amortized, WorstCase };
enum class StepOp { Insert, Delete };

/// Tuning parameters. Defaults favour experimental fidelity at simulable
/// sizes; the paper's proof constants are far more conservative (θ ≤ 1/545)
/// and can be restored by construction.
struct Params {
  std::uint64_t seed = 1;
  RecoveryMode mode = RecoveryMode::WorstCase;
  /// Rebuilding parameter θ (Eq. 3). Type-1 succeeds w.h.p. while the
  /// relevant set has ≥ θn nodes; the worst-case coordinator triggers
  /// staggered rebuilds at 3θn.
  double theta = 1.0 / 24.0;
  /// Maximum cloud size ζ (= 8 for the p-cycle family).
  std::uint64_t zeta = 8;
  /// Random-walk length = ceil(walk_factor * log2 n).
  double walk_factor = 4.0;
  /// Retries before declaring a type-1 walk failed in a step.
  std::uint64_t max_walk_retries = 64;

  [[nodiscard]] std::uint64_t low_threshold() const { return 2 * zeta; }
  [[nodiscard]] std::uint64_t max_load() const { return 4 * zeta; }
};

/// Per-step outcome, consumed by the benches.
struct StepReport {
  StepOp op = StepOp::Insert;
  sim::StepCost cost;
  std::uint64_t walk_retries = 0;
  bool type2_event = false;       ///< a type-2 rebuild started (or ran) here
  bool staggered_active = false;  ///< a staggered rebuild was in progress
  std::uint64_t n = 0;
  std::uint64_t p = 0;
};

class DexNetwork {
 public:
  /// Builds the initial constant-size network G_0: n0 nodes, a p-cycle with
  /// the smallest prime p0 ∈ (4·n0, 8·n0) (§4), vertices dealt round-robin
  /// (a balanced surjective mapping).
  explicit DexNetwork(std::size_t n0, Params params = {});

  DexNetwork(const DexNetwork&) = delete;
  DexNetwork& operator=(const DexNetwork&) = delete;

  // ----- adversary interface (§2) -----

  /// Inserts a new node attached to `attach_to` (must be alive); runs
  /// recovery; returns the new node's id.
  NodeId insert(NodeId attach_to);

  /// Deletes `victim` (must be alive; network must keep ≥ 2 nodes);
  /// runs recovery.
  void remove(NodeId victim);

  // ----- views -----

  [[nodiscard]] std::size_t n() const { return n_alive_; }
  [[nodiscard]] std::size_t node_capacity() const { return alive_.size(); }
  [[nodiscard]] bool alive(NodeId u) const {
    return u < alive_.size() && alive_[u];
  }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;
  [[nodiscard]] std::vector<bool> alive_mask() const { return alive_; }

  [[nodiscard]] std::uint64_t p() const { return map_.p(); }
  [[nodiscard]] const PCycle& cycle() const { return *cyc_; }
  [[nodiscard]] const VirtualMapping& mapping() const { return map_; }
  [[nodiscard]] const Params& params() const { return prm_; }

  /// Total simulated vertices at u across the current cycle plus any
  /// staggered build/teardown extras (claims count 0 until materialized).
  [[nodiscard]] std::uint64_t total_load(NodeId u) const;

  /// Owner of vertex 0 of the current cycle.
  [[nodiscard]] NodeId coordinator() const { return map_.owner(0); }

  [[nodiscard]] bool staggered_active() const {
    return build_.has_value() || tear_.has_value();
  }

  /// Monotone epoch counter, bumped at every p-cycle swap.
  [[nodiscard]] std::uint64_t cycle_epoch() const { return cycle_epoch_; }

  /// Exact real-network multigraph implied by the virtual structure
  /// (current cycle + staggered extras). Node ids index the full capacity;
  /// use alive_mask() with the graph algorithms.
  [[nodiscard]] graph::Multigraph snapshot() const;

  [[nodiscard]] const sim::CostMeter& meter() const { return meter_; }
  [[nodiscard]] const StepReport& last_report() const { return report_; }

  [[nodiscard]] std::uint64_t inflation_count() const { return inflations_; }
  [[nodiscard]] std::uint64_t deflation_count() const { return deflations_; }
  /// Times the safety valve (synchronous rebuild in worst-case mode) fired;
  /// expected 0 in any healthy configuration.
  [[nodiscard]] std::uint64_t forced_sync_type2() const {
    return forced_sync_type2_;
  }

  /// Coordinator's replicated counters (Algorithm 4.7); tests assert they
  /// match ground truth.
  struct CoordinatorState {
    std::uint64_t n = 0;
    std::uint64_t spare = 0;
    std::uint64_t low = 0;
  };
  [[nodiscard]] const CoordinatorState& coordinator_state() const {
    return coord_;
  }

  /// Heavy audit of every invariant the paper maintains (surjectivity,
  /// load bounds, counter exactness, staggered-state coherence). Aborts on
  /// violation. O(p).
  void check_invariants() const;

  // ----- hooks for the batch extension (§5) and tests -----

  /// Ports of node u in the real multigraph (derived on the fly). Exposed
  /// for the batch engine and the walk tests.
  void ports_of(NodeId u, std::vector<std::uint64_t>& out) const;

  /// Incremental-view surface (graph/csr.h): u's row of snapshot() as a
  /// multiset, in any state. It is ports_of plus, inside a staggered build,
  /// the reverse ports of u's unprocessed future vertices toward processed
  /// ones (ports_of lists a processed–unprocessed edge only at its processed
  /// end). Always returns true.
  [[nodiscard]] bool live_ports(NodeId u, std::vector<NodeId>& out) const;

  /// Installs (or clears, with nullptr) the churn journal the network
  /// appends touched ids to; the caller drains it between steps (see
  /// sim::HealingOverlay::drain_view_delta). Borrowed, not owned.
  void set_view_journal(graph::ViewDelta* j) { journal_ = j; }

  support::Rng& rng() { return rng_; }
  sim::CostMeter& meter_mut() { return meter_; }

  /// Allocates a node id without attaching it (batch insertions).
  NodeId allocate_node();
  /// Marks an allocated node alive (batch insertions).
  void activate_node(NodeId u) {
    DEX_ASSERT(u < alive_.size() && !alive_[u]);
    alive_[u] = true;
    ++n_alive_;
    journal_born(u);
  }
  /// Low-level pieces used by the batch engine.
  [[nodiscard]] bool try_assign_spare_vertex(NodeId newcomer, NodeId host);
  void absorb_and_mark_dead(NodeId victim, NodeId& absorber,
                            std::vector<Vertex>& absorbed);
  [[nodiscard]] bool redistribution_target_ok(NodeId w) const;
  /// Moves a current-cycle vertex (batch redistribution); meters topology.
  void transfer_current_vertex(Vertex z, NodeId to) {
    journal_transfer(z, to);
    meter_.add_topology(map_.transfer(z, to));
    meter_.add_messages(2);
  }
  /// Re-syncs coordinator counters and closes the step window after a batch.
  sim::StepCost finish_batch_step() {
    refresh_coordinator_counters();
    return meter_.end_step();
  }
  void force_simplified_inflate() { simplified_inflate(); }
  void force_simplified_deflate() { simplified_deflate(); }

 private:
  // --- staggered rebuild state ---

  /// Phase 1 of Algorithm 4.8/4.9: the next p-cycle is being built while
  /// the current one stays fully operational.
  struct BuildState {
    bool inflating = true;
    std::uint64_t p_new = 0;
    std::unique_ptr<PCycle> cyc_new;
    std::optional<InflationMap> infl;
    std::optional<DeflationMap> defl;
    std::uint64_t progress = 0;  ///< old vertices [0, progress) processed
    std::uint64_t batch = 1;     ///< old vertices per step
    /// Owner once materialized. Before that, the claimant of a vertex
    /// pre-assigned by a deflation grant (contending grabs, insertion
    /// grants), else kInvalidNode.
    std::vector<NodeId> phi_new;
    std::vector<std::vector<Vertex>> new_sim;  ///< per-node materialized
    std::vector<std::uint32_t> new_load;
    /// Per-node open pre-assignments, in grant order; processing a claimed
    /// vertex consumes its entry.
    std::vector<std::vector<Vertex>> claims;
  };

  /// Phase 2: the previous cycle being discarded group by group after the
  /// swap. The *current* mapping is already the new cycle.
  struct TeardownState {
    std::uint64_t p_old = 0;
    std::unique_ptr<PCycle> cyc_old;
    std::uint64_t progress = 0;  ///< old vertices [0, progress) dropped
    std::uint64_t batch = 1;
    std::vector<NodeId> phi_old;
    std::vector<std::uint32_t> pos_old;  ///< index in old_sim lists
    std::vector<std::vector<Vertex>> old_sim;  ///< undropped per node
    std::vector<std::uint32_t> old_load;
  };

  // --- recovery machinery ---

  [[nodiscard]] std::uint64_t walk_length() const;

  /// One type-1 random walk on the real network from `start`; stops at the
  /// first node satisfying `accept`; returns kInvalidNode on failure.
  /// `exclude` is skipped while stepping (the freshly inserted node).
  NodeId type1_walk(NodeId start,
                    const std::function<bool(NodeId)>& accept,
                    NodeId exclude = kInvalidNode);

  /// Walk with retries + coordinator consults + safety valve; never fails.
  NodeId walk_until_found(NodeId start,
                          const std::function<bool(NodeId)>& accept,
                          bool insert_side, NodeId exclude = kInvalidNode);

  void handle_insert_recovery(NodeId u, NodeId attach_to);
  /// One attempt at insertion recovery under the current state; returns
  /// false if a rebuild/trigger changed the state and dispatch must rerun.
  bool dispatch_insert(NodeId u, NodeId attach_to);
  /// Returns the neighbor that led the repair (for coordinator notification).
  NodeId handle_delete_recovery(NodeId victim);

  // --- type-2: simplified (amortized) ---
  void simplified_inflate();
  void simplified_deflate();
  /// Phase 2 of simplifiedInfl: parallel-walk shedding of loads > 4ζ.
  void rebalance_inflated(VirtualMapping& nm, const PCycle& nc);
  /// Phase 2 of simplifiedDefl: contending nodes grab non-taken vertices.
  void resolve_contenders_deflated(VirtualMapping& nm, const PCycle& nc,
                                   const DeflationMap& dm);

  // --- type-2: staggered (worst case) ---
  void maybe_trigger_staggered();
  void start_staggered(bool inflate);
  void advance_staggered();
  void advance_build();
  /// Materializes the clouds of old vertex x; returns the longest routing
  /// distance used to place an inverse/intermediate edge (rounds charge).
  std::uint64_t process_build_vertex(Vertex x);
  void finish_build_phase();   ///< swap: build -> teardown
  void advance_teardown();
  [[nodiscard]] std::uint64_t staggered_batch(std::uint64_t p_len) const;

  [[nodiscard]] bool build_processed(Vertex y) const;
  [[nodiscard]] Vertex build_generator(Vertex y) const;
  [[nodiscard]] NodeId owner_future(Vertex y) const;
  /// New vertices node w can still give away (materialized + future − claims
  /// − its own reserve).
  [[nodiscard]] std::int64_t spare_new_capacity(NodeId w) const;
  void grant_new_vertex(NodeId w, NodeId to);
  void shed_excess_new_load(NodeId from);
  void transfer_new_vertex(Vertex y, NodeId to);
  void transfer_old_residual(Vertex x, NodeId to);

  // --- coordinator (Algorithm 4.7) ---
  void notify_coordinator(NodeId from);
  void refresh_coordinator_counters();

  void charge_flood(NodeId source);
  /// Analytic charge for one permutation-routing pass on a p-cycle of size
  /// q (Cor. 3); validated empirically by bench_walks.
  void charge_permutation_routing(std::uint64_t q);
  [[nodiscard]] std::uint32_t sampled_mean_distance(const PCycle& c);

  void begin_step(StepOp op);
  void post_step_common(NodeId actor);
  void end_step();

  [[nodiscard]] NodeId pick_recovery_neighbor(NodeId victim) const;
  /// Appends ports_of(u) to `out` (u64 for the walk engine, NodeId for
  /// live_ports).
  template <class Id>
  void append_ports(NodeId u, std::vector<Id>& out) const;

  // --- churn journal (graph/csr.h ViewDelta; no-ops when none installed).
  // Entries after a full mark are dropped — the full mark supersedes them
  // and keeps the lists from growing across a whole staggered window.
  void journal_born(NodeId u) {
    if (journal_ && !journal_->full) journal_->born.push_back(u);
  }
  void journal_died(NodeId u) {
    if (journal_ && !journal_->full) journal_->died.push_back(u);
  }
  void journal_full() {
    if (journal_) journal_->mark_full();
  }
  /// Adjacency touched when current-cycle vertex z moves to `to`: the old
  /// owner, the new owner, and the owners of z's cycle neighbors. Must run
  /// BEFORE the map_.transfer it describes.
  void journal_transfer(Vertex z, NodeId to) {
    if (!journal_ || journal_->full) return;
    journal_->dirty.push_back(map_.owner(z));
    journal_->dirty.push_back(to);
    for (Vertex w : cyc_->ports(z)) journal_->dirty.push_back(map_.owner(w));
  }

  // --- data ---
  Params prm_;
  support::Rng rng_;
  sim::CostMeter meter_;
  StepReport report_;

  std::unique_ptr<PCycle> cyc_;
  VirtualMapping map_;

  std::vector<bool> alive_;
  std::size_t n_alive_ = 0;

  std::optional<BuildState> build_;
  std::optional<TeardownState> tear_;

  CoordinatorState coord_;
  graph::ViewDelta* journal_ = nullptr;  ///< borrowed; see set_view_journal
  std::uint64_t cycle_epoch_ = 0;
  std::uint64_t inflations_ = 0;
  std::uint64_t deflations_ = 0;
  std::uint64_t forced_sync_type2_ = 0;
};

}  // namespace dex
