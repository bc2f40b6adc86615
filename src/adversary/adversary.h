#pragma once

/// \file adversary.h
/// Adaptive adversaries (§2 of the paper). The adversary is computationally
/// unbounded, sees the entire network state (topology, loads, even the
/// identity of the coordinator) and all *past* random choices; only the
/// algorithm's future coin flips are hidden. Strategies here receive a full
/// read-only view and emit one churn decision per step — a single event
/// (next) or, batch-first since §5 became drivable, a whole sim::ChurnBatch
/// (next_batch; the default wraps next, batch-native strategies override).
///
/// Network-agnostic: AdversaryView reads any backend through the unified
/// sim::HealingOverlay interface. The topology reaches strategies as the
/// view's maintained CSR (graph/csr.h), patched per step rather than copied
/// per draw.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/churn.h"
#include "support/prng.h"

namespace dex::sim {
class HealingOverlay;
}  // namespace dex::sim

namespace dex::adversary {

using graph::NodeId;

struct ChurnAction {
  bool insert = true;
  /// For insertions: the node to attach to. For deletions: the victim.
  NodeId target = 0;
};

/// The adversary's read-only window into the network under attack, over
/// any overlay: every driver (the runner, the tests) builds one per run.
/// alive_nodes() is materialized at most once per step, however many times
/// the strategies consult it. The topology is the maintained flat CSR
/// (graph/csr.h) that strategies, the gap sampler and the traffic layer's
/// route/placement oracle all read by reference (object identity is stable
/// across steps, so borrowed pointers stay valid).
///
/// advance() is the one step boundary: it drops the node memo, drains the
/// overlay's churn journal (HealingOverlay::drain_view_delta) and *patches*
/// the CSR in place when the delta is precise, paying per-step cost
/// proportional to the churn delta. It falls back to a lazy from-scratch
/// rebuild whenever the journal is absent or full (flooding keeps no
/// journal; DEX marks every staggered-window step full). Builds and patches
/// both enumerate rows through HealingOverlay::live_ports, on every backend
/// and in every state, so the view never reads snapshot(). With
/// DEX_CHECK_CSR=1 in the environment every advance() additionally rebuilds
/// a reference view and asserts semantic equality.
class AdversaryView {
 public:
  explicit AdversaryView(const sim::HealingOverlay& overlay);

  // Borrowers (KvStore, the overlay's live-view provider) hold pointers
  // into this object; a copy would silently stop tracking the overlay.
  AdversaryView(const AdversaryView&) = delete;
  AdversaryView& operator=(const AdversaryView&) = delete;

  [[nodiscard]] std::size_t n() const;
  /// The alive ids; valid until the next advance().
  [[nodiscard]] const std::vector<NodeId>& alive_nodes() const;
  /// Load of a node (virtual vertices for DEX; degree for baselines).
  [[nodiscard]] std::size_t load(NodeId u) const;
  /// A distinguished node worth attacking (DEX's coordinator), or
  /// graph::kInvalidNode when the network has none.
  [[nodiscard]] NodeId special_node() const;
  /// Whether snapshot_without() is available. When it is not, strategies
  /// fall back to live_csr() with the node excluded.
  [[nodiscard]] bool has_removal_oracle() const { return removal_oracle_; }
  /// The topology that would result from deleting `u`, including the
  /// overlay's deterministic splice-healing. Requires has_removal_oracle().
  [[nodiscard]] graph::Multigraph snapshot_without(NodeId u) const;
  /// The live topology as a flat CSR: aliveness plus one row of live
  /// neighbors per node, whose multiset equals the overlay's snapshot row.
  /// Built lazily, returned by reference; valid until the next advance().
  [[nodiscard]] const graph::CsrView& live_csr() const;
  /// The maintained CSR when it is current, else nullptr. Never triggers a
  /// build — this feeds HealingOverlay::set_live_view_provider, whose
  /// consumers (batch preflight) want an opportunistic read, not a charge.
  [[nodiscard]] const graph::CsrView* live_csr_if_valid() const {
    return csr_valid_ ? &csr_ : nullptr;
  }

  /// Adopts the overlay's current state. Call after every mutation batch,
  /// before the view is read again — the journal delta spans everything
  /// since the previous drain, however many events that was.
  void advance();

 private:
  /// Row enumerator handed to build_from_ports/apply_delta.
  [[nodiscard]] graph::CsrView::PortsFn ports_fn() const;

  const sim::HealingOverlay& overlay_;
  bool removal_oracle_;
  mutable std::optional<std::vector<NodeId>> nodes_;
  // The CSR keeps its buffers across rebuilds (build() reuses them); the
  // flag alone tracks staleness.
  mutable graph::CsrView csr_;
  mutable bool csr_valid_ = false;
  graph::ViewDelta delta_;  ///< drain buffer (ping-pongs with the journal)
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  /// Decides the next step. min_n/max_n bound the population the driver
  /// wants to maintain (strategies must not delete below min_n).
  virtual ChurnAction next(const AdversaryView& view, support::Rng& rng,
                           std::size_t min_n, std::size_t max_n) = 0;

  /// Decides one *batch* step of up to `batch_size` events (§5 model). The
  /// default wraps next(): it draws single events against the pre-batch
  /// view, discarding picks that no longer make sense mid-batch (victims
  /// chosen twice, attach points that are dying) and projecting the
  /// population against min_n/max_n, so the returned batch is always
  /// self-consistent — distinct alive victims, surviving attach points,
  /// n - victims ≥ min_n, n + inserts ≤ max_n. Near a population bound the
  /// batch may come back smaller than batch_size (even empty). Batch-native
  /// strategies override this wholesale.
  virtual sim::ChurnBatch next_batch(const AdversaryView& view,
                                     support::Rng& rng, std::size_t min_n,
                                     std::size_t max_n,
                                     std::size_t batch_size);

 protected:
  static NodeId random_alive(const AdversaryView& view, support::Rng& rng) {
    const auto& nodes = view.alive_nodes();
    return nodes[rng.below(nodes.size())];
  }
};

/// Greedy §5-safe deletion sampler shared by the batch-native strategies:
/// scans `order` and keeps alive victims that are pairwise non-adjacent and
/// leave every survivor at least one edge (hence every victim keeps a
/// surviving neighbor), then trims from the back until the survivors are
/// connected. Returns at most `want` victims; possibly fewer (never unsafe).
/// Row order in `g` is irrelevant: the degree test only counts ports
/// (self-loops and multi-edges included).
[[nodiscard]] std::vector<NodeId> sample_safe_victims(
    const graph::CsrView& g, const std::vector<NodeId>& order,
    std::size_t want);

/// Uniform churn: insert with probability `insert_prob`, both endpoints
/// uniform. The baseline workload.
class RandomChurn final : public Strategy {
 public:
  explicit RandomChurn(double insert_prob = 0.5) : p_(insert_prob) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  double p_;
};

/// Pure growth (drives inflations). Deliberately ignores max_n — a growth
/// workload that started deleting at a cap would no longer be insert-only;
/// size the step count to the growth you want.
class InsertOnly final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
};

/// Pure shrinkage (drives deflations). Honors min_n (inserts at the floor
/// instead of destroying the network) but, symmetrically with InsertOnly,
/// ignores max_n.
class DeleteOnly final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
};

/// k inserts then k deletes, repeatedly — oscillates across the type-2
/// thresholds (the paper's worst-case pacing argument, Lemma 8, says this
/// cannot force frequent rebuilds).
class Oscillate final : public Strategy {
 public:
  explicit Oscillate(std::size_t half_period) : k_(half_period) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  std::size_t k_;
  std::size_t tick_ = 0;
};

/// Always deletes the distinguished node (DEX's coordinator) — the
/// "maintaining global knowledge is fragile" attack of §3; DEX survives it
/// because the coordinator state is O(log n) bits and replicated.
class CoordinatorKiller final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  bool insert_next_ = false;
};

/// Deletes the maximum-load node / attaches newcomers to it — tries to
/// concentrate load and break the balanced mapping.
class LoadAttack final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  bool insert_next_ = false;
};

/// The strongest adaptive attack we implement: periodically computes a
/// (spectral sweep) sparse cut of the *current* topology and deletes the
/// cut-boundary nodes, interleaving insertions attached to one fixed side
/// to starve the cut. Collapses probabilistic overlays (E4/E9); DEX's
/// deterministic re-balancing heals through it.
class SpectralAttack final : public Strategy {
 public:
  explicit SpectralAttack(std::size_t recompute_period = 16)
      : period_(recompute_period) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  std::size_t period_;
  std::size_t tick_ = 0;
  std::deque<NodeId> kill_queue_;
  NodeId anchor_ = graph::kInvalidNode;
};

/// The unbounded-computation attack of §2 made literal: each deletion step
/// samples `candidates` victims, evaluates the spectral gap the network
/// would be left with (via the snapshot_without oracle), and deletes the
/// most damaging one. Collapses overlays whose expansion is only
/// probabilistic (Law–Siu loses >80% of its gap; see E4); DEX's randomized
/// re-balancing denies the adversary a stable target.
class GreedySpectralDeletion final : public Strategy {
 public:
  explicit GreedySpectralDeletion(std::size_t candidates = 24,
                                  double insert_ratio = 0.0)
      : candidates_(candidates), insert_ratio_(insert_ratio) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;

 private:
  std::size_t candidates_;
  double insert_ratio_;
};

/// Burst churn, batch-native: each batch is a random insert/delete mix
/// (insert fraction drawn around `insert_frac`), with the delete side drawn
/// through sample_safe_victims and the insert side capped at
/// sim::kMaxAttachPerNode per attach point — bursts deliberately satisfy
/// the §5 preconditions so DEX's parallel path stays eligible.
class BurstChurn final : public Strategy {
 public:
  explicit BurstChurn(double insert_frac = 0.5)
      : frac_(insert_frac), single_(insert_frac) {}
  /// Single-event fallback: exactly uniform churn at the burst's insert
  /// fraction (delegates to RandomChurn — one bound-enforcement path).
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override {
    return single_.next(view, rng, min_n, max_n);
  }
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;

 private:
  double frac_;
  RandomChurn single_;
};

/// Flash crowd, batch-native: waves of pure insertion (newcomers spread
/// over uniform attach points, ≤ kMaxAttachPerNode each) until the
/// population cap, then a §5-safe departure wave to make room — the
/// heavy-traffic arrival pattern the ROADMAP asks for.
class FlashCrowd final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;
};

/// Correlated mass failure, batch-native: picks a random epicenter and
/// deletes a §5-safe subset of its BFS ball (victims clustered in one
/// region of the topology, as in a rack/AS failure), inserting at the
/// population floor to keep the scenario running.
class CorrelatedFailure final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;
};

/// Oracle-cache-busting churn, batch-native: every step scatters victims
/// and attach points across as many distinct topology regions as possible —
/// candidates are ringed by BFS distance from a random epicenter and
/// consumed round-robin across rings, farthest rings first. Each event then
/// re-homes keys onto homes in a different region, so the DistanceOracle's
/// fixed-size root memo (sim/oracle.h), which prices those transfers, keeps
/// missing instead of amortizing — the access pattern the memo is worst at.
class OracleBuster final : public Strategy {
 public:
  /// Single-event fallback: uniform churn (the scatter pattern only exists
  /// at batch scale).
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override {
    return single_.next(view, rng, min_n, max_n);
  }
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;

 private:
  RandomChurn single_;
};

/// p-cycle chord targeting, batch-native: scores each node by how many
/// shortest-path trees it carries (a betweenness proxy — over a handful of
/// random BFS roots, count the child edges a node feeds) and deletes the
/// top carriers §5-safely. On DEX this aims at the nodes whose p-cycle
/// chords (§4) provide the long-range shortcuts; on the baselines it strips
/// whatever carries their small diameter.
class ChordAttack final : public Strategy {
 public:
  explicit ChordAttack(std::size_t sources = 8) : sources_(sources) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;

 private:
  std::vector<std::uint32_t> chord_scores(const AdversaryView& view,
                                          support::Rng& rng,
                                          const graph::CsrView& g) const;
  std::size_t sources_;
  bool insert_next_ = false;
};

/// SpectralAttack at batch scale: each batch recomputes the sweep cut of
/// the *current* topology, deletes the sparse side boundary-first (nodes
/// with the most cut-crossing edges go first, thinned §5-safely), and
/// spends any leftover budget on insertions anchored to the opposite side —
/// so the whole εn batch lands on one cut instead of dribbling out an event
/// at a time.
class SpectralBatch final : public Strategy {
 public:
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;
};

/// Replays a fixed script (tests). Exactly script.size() actions are
/// allowed: next() and next_batch() abort (DEX_ASSERT, active in every
/// build) when the script is exhausted — a driver asking for more steps
/// than it scripted is a harness bug, not a workload. Check remaining() to
/// size the run. next_batch replays the next batch_size actions verbatim,
/// with none of the default wrapper's filtering: batch validity is the
/// script author's responsibility.
class Scripted final : public Strategy {
 public:
  explicit Scripted(std::vector<ChurnAction> script)
      : script_(std::move(script)) {}
  ChurnAction next(const AdversaryView& view, support::Rng& rng,
                   std::size_t min_n, std::size_t max_n) override;
  sim::ChurnBatch next_batch(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n,
                             std::size_t batch_size) override;

  /// Actions left before next()/next_batch() would abort.
  [[nodiscard]] std::size_t remaining() const { return script_.size() - at_; }

 private:
  std::vector<ChurnAction> script_;
  std::size_t at_ = 0;
};

}  // namespace dex::adversary
