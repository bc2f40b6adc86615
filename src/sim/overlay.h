#pragma once

/// \file overlay.h
/// The unified self-healing-overlay interface the whole experiment stack
/// drives: one abstract surface (churn + read-only views + cost meters) over
/// every maintained-topology construction the paper compares — DEX in both
/// recovery flavours, the flooding strawman of §3, the Law–Siu overlay [18],
/// the flip-chain overlay [6, 23], and Xheal-with-guaranteed-patches [24].
///
/// Anything that can (a) absorb one ChurnBatch per step — one or many
/// adversarial insertions/deletions healed within the step — and (b) expose
/// its topology and per-step cost is a HealingOverlay; the ScenarioRunner
/// (sim/scenario.h), the adversary strategies (via adversary::AdversaryView),
/// the benches and the CLI all operate on this interface and are therefore
/// backend-agnostic. The churn surface is batch-first (§5, Corollary 2):
/// apply(ChurnBatch) is the primitive, with a default sequential
/// implementation over the single-event insert()/remove() hooks, which
/// remain the per-event customization points (and convenience wrappers for
/// callers with one event). DexOverlay overrides apply() to run the
/// parallel-walk batch recovery of src/dex/batch.h.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flood_rebuild.h"
#include "baselines/law_siu.h"
#include "baselines/random_flip.h"
#include "dex/network.h"
#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/churn.h"
#include "sim/meters.h"
#include "xheal/xheal.h"

namespace dex::sim {

using graph::NodeId;

class HealingOverlay {
 public:
  virtual ~HealingOverlay() = default;

  /// Stable identifier ("dex-worstcase", "flood", …) used in emitted traces.
  [[nodiscard]] virtual const char* name() const = 0;

  // ----- the churn interface: one ChurnBatch per step (§2 is the
  // batch-of-one special case; §5 is the general one) -----

  /// Applies one batch: every victim deleted and every attach point given
  /// one newcomer, healed within the step. This default is the *sequential*
  /// reference implementation — victims in order, then insertions in order,
  /// costs summed (the events happen one after another, so rounds add up).
  /// Backends with a genuinely parallel batch recovery (DexOverlay)
  /// override it; apply_sequential() stays callable on any overlay as the
  /// comparison baseline.
  virtual BatchOutcome apply(const ChurnBatch& batch) {
    return apply_sequential(batch);
  }

  /// The default sequential batch application (see apply()). Non-virtual:
  /// always the event-by-event path, whatever the dynamic type — the
  /// sequential side of the paper's sequential-vs-parallel comparison.
  BatchOutcome apply_sequential(const ChurnBatch& batch) {
    BatchOutcome out;
    for (NodeId v : batch.victims) {
      remove(v);
      out.cost += last_step_cost();
    }
    for (NodeId a : batch.attach_to) {
      out.inserted.push_back(insert(a));
      out.cost += last_step_cost();
    }
    return out;
  }

  /// Inserts one node. `attach_to` is the adversary's chosen attachment
  /// point; constructions that splice newcomers in on their own (Law–Siu,
  /// flip-chain, flooding) may ignore it. Returns the new node's id.
  virtual NodeId insert(NodeId attach_to) = 0;

  /// Deletes `victim` (must be alive); the overlay heals before returning.
  virtual void remove(NodeId victim) = 0;

  /// The smallest population deletions may leave behind. 3 for most
  /// overlays ("never empty the network"); constructions with structural
  /// floors raise it — the d-regular flip chain needs d+2 alive nodes to
  /// rewire around a departure, Law–Siu keeps 4. Callers that trim delete
  /// batches (the event engine's racing-churn filter) must keep
  /// n() - victims >= this floor or remove() asserts.
  [[nodiscard]] virtual std::size_t min_population() const { return 3; }

  // ----- read-only views -----

  [[nodiscard]] virtual std::size_t n() const = 0;
  [[nodiscard]] virtual bool alive(NodeId u) const = 0;
  [[nodiscard]] virtual std::vector<NodeId> alive_nodes() const = 0;
  [[nodiscard]] virtual std::vector<bool> alive_mask() const = 0;

  /// The real topology as a multigraph over the full id capacity; combine
  /// with alive_mask() for the graph algorithms. The run loop never reads
  /// it (AdversaryView builds its CSR from live_ports); examples use it for
  /// whole-graph measurements, and tests check live rows against it.
  [[nodiscard]] virtual graph::Multigraph snapshot() const = 0;

  /// Fills `out` with the live neighbors of alive node `u`: its masked
  /// snapshot() row as a multiset, in the overlay's own fixed order (which
  /// may differ from Multigraph port order). Every backend enumerates every
  /// row in every state, DEX's staggered windows included, and returns
  /// true; the bool remains for existing overriders.
  [[nodiscard]] virtual bool live_ports(NodeId u,
                                        std::vector<NodeId>& out) const = 0;

  /// Load of a node: virtual vertices simulated for DEX, degree for the
  /// graph-maintained baselines.
  [[nodiscard]] virtual std::size_t load(NodeId u) const = 0;

  /// Max degree in the real topology: the longest live_ports row, whose
  /// length is the snapshot degree by contract (the runner calls this every
  /// step when ScenarioSpec::measure_degree is on).
  [[nodiscard]] virtual std::size_t max_degree() const {
    std::vector<NodeId> buf;
    std::size_t best = 0;
    for (auto u : alive_nodes()) {
      (void)live_ports(u, buf);
      best = std::max(best, buf.size());
    }
    return best;
  }

  /// A distinguished node worth attacking (DEX's coordinator), or
  /// graph::kInvalidNode when the construction has none.
  [[nodiscard]] virtual NodeId special_node() const {
    return graph::kInvalidNode;
  }

  // ----- the routing surface (traffic layer, §4.4.4 generalized) -----

  /// Hop path from `src` to `dst` over the live real topology, inclusive of
  /// both endpoints ({src} when src == dst; empty when unreachable). `live`
  /// is the caller's step-cached flat CSR of the live view (sim::KvStore
  /// refreshes it once per churn step through AdversaryView) and must reflect
  /// the overlay's *current* topology: the baselines maintain no routing
  /// state, so their canonical request path is a BFS shortest path on what
  /// they see — that is this default. DexOverlay overrides it with the
  /// locally computable p-cycle route of §4.4.4 (no global view needed, at
  /// the price of stretch > 1 against the BFS optimum).
  [[nodiscard]] virtual std::vector<NodeId> route(
      NodeId src, NodeId dst, const graph::CsrView& live) const;

  /// Whether route() returns a shortest path on the given view. True for
  /// the BFS default; overlays routing on their own structure (DEX) return
  /// false, and consumers measuring stretch (sim::KvStore) then pay one
  /// extra BFS per request for the optimum instead of assuming it.
  [[nodiscard]] virtual bool route_is_shortest() const { return true; }

  // ----- cost accounting -----

  [[nodiscard]] virtual const CostMeter& meter() const = 0;
  /// Cost of the most recent insert()/remove() step.
  [[nodiscard]] virtual StepCost last_step_cost() const = 0;

  // ----- optional capabilities -----

  /// Moves the ids touched since the previous drain into `out` and returns
  /// true; returns false when the backend keeps no journal (callers must
  /// then rebuild their views from scratch each step). The first successful
  /// drain installs the journal and reports a full delta — history before
  /// tracking started is unknown. Logically const: draining changes no
  /// observable topology, only the observer bookkeeping.
  [[nodiscard]] virtual bool drain_view_delta(graph::ViewDelta& out) const {
    (void)out;
    return false;
  }

  /// Inert: every overlay runs a churn step on one thread, and no backend
  /// overrides this. It stays only because benchmark/dex_bench.cpp's
  /// TimedOverlay overrides it; remove it with the next benchmark change.
  virtual void set_intra_jobs(unsigned jobs) { (void)jobs; }

  /// Wires a provider of the caller's maintained live CSR (AdversaryView's,
  /// refreshed lazily). Overlays with view-dependent fast paths — DEX's
  /// batch precondition connectivity check — consult it through live_view()
  /// instead of building their own; nullptr (or no provider) means "build a
  /// local view".
  void set_live_view_provider(std::function<const graph::CsrView*()> p) {
    live_view_provider_ = std::move(p);
  }

  /// Whether snapshot_without() below is an exact post-healing oracle.
  [[nodiscard]] virtual bool has_removal_oracle() const { return false; }

  /// Topology that would result from deleting `victim` including the
  /// overlay's deterministic healing. Must be overridden by any adapter
  /// returning has_removal_oracle() == true; strategies fall back to the
  /// live CSR with the victim excluded when no oracle is wired (see
  /// GreedySpectralDeletion), so there is deliberately no default here.
  [[nodiscard]] virtual graph::Multigraph snapshot_without(
      NodeId victim) const {
    (void)victim;
    DEX_ASSERT_MSG(false,
                   "snapshot_without called on an overlay without a "
                   "removal oracle");
    return graph::Multigraph{};  // unreachable
  }

  /// Heavy structural audit; aborts on violation. Default: no-op.
  virtual void check_invariants() const {}

 protected:
  /// The caller-maintained live CSR, or nullptr when none is wired (or the
  /// provider currently has nothing valid to offer).
  [[nodiscard]] const graph::CsrView* live_view() const {
    return live_view_provider_ ? live_view_provider_() : nullptr;
  }

 private:
  std::function<const graph::CsrView*()> live_view_provider_;
};

// ---------------------------------------------------------------------------
// Adapters. Each owns its network and exposes it through net() for code that
// needs construction-specific counters (walk retries, rebuild counts, …).
// The shared read-only/meter plumbing lives in OverlayAdapter<Net>; the
// concrete adapters add only what genuinely differs per construction (churn
// entry points, load semantics, oracles).
// ---------------------------------------------------------------------------

/// The boilerplate every adapter shares: it owns the network object and
/// forwards n()/alive()/alive_nodes()/alive_mask()/snapshot()/max_degree()/
/// live_ports()/meter()/last_step_cost() to it. Small API differences
/// between the networks are absorbed with `if constexpr` probes
/// (XhealNetwork exposes the topology as graph() rather than a snapshot()
/// copy; DexNetwork reports step cost through last_report()) so each
/// concrete adapter overrides only its genuine behavior. All forwards stay virtual — an
/// adapter can still specialize any of them (e.g. XhealOverlay's
/// allocation-free max_degree()).
template <typename Net>
class OverlayAdapter : public HealingOverlay {
 public:
  [[nodiscard]] std::size_t n() const override { return net_.n(); }
  [[nodiscard]] bool alive(NodeId u) const override { return net_.alive(u); }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const override {
    return net_.alive_nodes();
  }
  [[nodiscard]] std::vector<bool> alive_mask() const override {
    return net_.alive_mask();
  }
  [[nodiscard]] graph::Multigraph snapshot() const override {
    if constexpr (requires(const Net& n) { n.snapshot(); }) {
      return net_.snapshot();
    } else {
      return net_.graph();
    }
  }
  [[nodiscard]] std::size_t max_degree() const override {
    if constexpr (requires(const Net& n) { n.max_degree(); }) {
      return net_.max_degree();
    } else {
      return HealingOverlay::max_degree();
    }
  }
  [[nodiscard]] const CostMeter& meter() const override {
    return net_.meter();
  }
  [[nodiscard]] StepCost last_step_cost() const override {
    if constexpr (requires(const Net& n) { n.last_step(); }) {
      return net_.last_step();
    } else {
      return net_.last_report().cost;
    }
  }

  [[nodiscard]] bool live_ports(NodeId u,
                                std::vector<NodeId>& out) const override {
    return net_.live_ports(u, out);
  }

  /// Generic journal plumbing: networks that accept a set_view_journal
  /// pointer get delta tracking for free. The adapter owns the journal and
  /// ping-pongs it with the caller's buffer on each drain, so steady state
  /// allocates nothing. Installing the journal is observer bookkeeping on a
  /// mutable member — topology is untouched — hence the const_cast.
  [[nodiscard]] bool drain_view_delta(graph::ViewDelta& out) const override {
    if constexpr (requires(Net& n, graph::ViewDelta* j) {
                    n.set_view_journal(j);
                  }) {
      if (!tracking_) {
        tracking_ = true;
        const_cast<Net&>(net_).set_view_journal(&journal_);
        out.mark_full();
        return true;
      }
      std::swap(out, journal_);
      journal_.clear();
      return true;
    } else {
      return false;
    }
  }

  [[nodiscard]] Net& net() { return net_; }
  [[nodiscard]] const Net& net() const { return net_; }

 protected:
  template <typename... Args>
  explicit OverlayAdapter(Args&&... args)
      : net_(std::forward<Args>(args)...) {}

  Net net_;
  mutable graph::ViewDelta journal_;
  mutable bool tracking_ = false;
};

class DexOverlay final : public OverlayAdapter<DexNetwork> {
 public:
  explicit DexOverlay(std::size_t n0, dex::Params params = {})
      : OverlayAdapter(n0, params),
        name_(params.mode == RecoveryMode::Amortized ? "dex-amortized"
                                                     : "dex-worstcase") {}

  [[nodiscard]] const char* name() const override { return name_; }

  /// Routes multi-event batches through the §5 parallel-walk recovery
  /// (dex::apply_batch) whenever dex::batch_feasible says the request meets
  /// the model's preconditions (amortized mode, no staggered rebuild,
  /// connectivity/multiplicity conditions); anything else — single events,
  /// worst-case mode, infeasible batches — takes the sequential path, so
  /// every batch workload runs end-to-end on every DEX flavour. The
  /// sequential path additionally attributes type-2 rebuilds fired by its
  /// events to the outcome (the generic apply_sequential cannot see them).
  BatchOutcome apply(const ChurnBatch& batch) override;

  /// Parallel batch recovery on/off (default on). The benches flip this to
  /// measure the sequential baseline on the same backend.
  void set_parallel_batches(bool enabled) { parallel_batches_ = enabled; }

  /// The §4.4.4 route: the p-cycle shortest path between a simulated vertex
  /// of src and one of dst, contracted through the virtual mapping — every
  /// hop is a materialized real edge, and both endpoints compute it from
  /// O(log n) local state (the cached view is ignored). Mid-build newcomers
  /// without an owned vertex fall back to the BFS default.
  [[nodiscard]] std::vector<NodeId> route(
      NodeId src, NodeId dst, const graph::CsrView& live) const override;

  /// P-cycle routes trade optimality for local computability (that is the
  /// measured stretch).
  [[nodiscard]] bool route_is_shortest() const override { return false; }

  NodeId insert(NodeId attach_to) override { return net_.insert(attach_to); }
  void remove(NodeId victim) override { net_.remove(victim); }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return static_cast<std::size_t>(net_.total_load(u));
  }
  [[nodiscard]] NodeId special_node() const override {
    return net_.coordinator();
  }
  void check_invariants() const override { net_.check_invariants(); }

 private:
  const char* name_;
  bool parallel_batches_ = true;
};

class FloodRebuildOverlay final
    : public OverlayAdapter<baselines::FloodRebuildNetwork> {
 public:
  explicit FloodRebuildOverlay(std::size_t n0) : OverlayAdapter(n0) {}

  [[nodiscard]] const char* name() const override { return "flood"; }
  NodeId insert(NodeId /*attach_to*/) override { return net_.insert(); }
  void remove(NodeId victim) override { net_.remove(victim); }
  /// The node's actual degree. The rebuilt round-robin mapping is balanced,
  /// so loads differ by at most one vertex (3 edges) — callers wanting the
  /// uniform balanced bound should read max_degree(), which is what this
  /// adapter reported for every node before per-node degrees were wired.
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return net_.degree(u);
  }
};

class LawSiuOverlay final : public OverlayAdapter<baselines::LawSiuNetwork> {
 public:
  LawSiuOverlay(std::size_t n0, std::size_t d, std::uint64_t seed)
      : OverlayAdapter(n0, d, seed) {}

  [[nodiscard]] const char* name() const override { return "lawsiu"; }
  NodeId insert(NodeId /*attach_to*/) override { return net_.insert(); }
  void remove(NodeId victim) override { net_.remove(victim); }
  [[nodiscard]] std::size_t min_population() const override { return 4; }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return net_.degree(u);
  }
  [[nodiscard]] bool has_removal_oracle() const override { return true; }
  [[nodiscard]] graph::Multigraph snapshot_without(
      NodeId victim) const override {
    return net_.snapshot_without(victim);
  }
};

class RandomFlipOverlay final
    : public OverlayAdapter<baselines::RandomFlipNetwork> {
 public:
  RandomFlipOverlay(std::size_t n0, std::size_t d, std::uint64_t seed,
                    std::size_t flips_per_step = 4)
      : OverlayAdapter(n0, d, seed, flips_per_step), d_(d) {}

  [[nodiscard]] const char* name() const override { return "randomflip"; }
  NodeId insert(NodeId /*attach_to*/) override { return net_.insert(); }
  void remove(NodeId victim) override { net_.remove(victim); }
  /// The flip chain rewires a departure through d surviving edges, so it
  /// refuses to delete below d+2 alive nodes.
  [[nodiscard]] std::size_t min_population() const override { return d_ + 2; }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return net_.degree(u);
  }

 private:
  std::size_t d_;
};

class XhealOverlay final : public OverlayAdapter<xheal::XhealNetwork> {
 public:
  explicit XhealOverlay(graph::Multigraph initial)
      : OverlayAdapter(std::move(initial)) {}

  [[nodiscard]] const char* name() const override { return "xheal"; }
  NodeId insert(NodeId attach_to) override { return net_.insert({attach_to}); }
  void remove(NodeId victim) override { net_.remove(victim); }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return net_.graph().degree(u);
  }
  // max_degree: the base default scans via XhealNetwork::live_ports — the
  // graph by const reference, no snapshot copy (this adapter used to carry
  // a bespoke override for exactly that).
};

/// Backend factory keyed by the names the CLI exposes: "dex-amortized",
/// "dex-worstcase", "flood", "lawsiu", "randomflip", "xheal" (started from a
/// random 4-regular graph). Returns nullptr for unknown names.
[[nodiscard]] std::unique_ptr<HealingOverlay> make_overlay(
    const std::string& backend, std::size_t n0, std::uint64_t seed);

/// The factory names make_overlay accepts, in canonical order (the order
/// the CLI's `--backend all` and the conformance suites iterate).
[[nodiscard]] const std::vector<std::string>& known_overlays();

/// Comma-separated list of valid factory names (for usage messages).
[[nodiscard]] const char* overlay_names();

}  // namespace dex::sim
