#pragma once

/// \file workload.h
/// The traffic layer: backend-agnostic key-value workloads served *through*
/// a HealingOverlay while churn runs underneath. The paper's headline
/// application (§4.4.4) is a DHT whose keys survive churn because the
/// p-cycle heals under them; this layer generalizes that claim into a
/// scenario axis every backend can serve, so the stretch/latency comparison
/// against the baselines (Law–Siu, Xheal, flooding) becomes measurable.
///
/// Three pieces:
///
///  * KvStore — a generic key-value store over any HealingOverlay. Keys
///    hash into the *alive-node space* by consistent hashing (AnchorHash),
///    so one membership change re-homes only the affected keys (the
///    paper's hash-to-vertex scheme, mix64(k) mod p, would re-hash every
///    key on each p-cycle rebuild). Requests route through
///    HealingOverlay::route (DEX: locally computable p-cycle paths;
///    baselines: BFS on the live view), and every operation reports both
///    its realized hops and the BFS-optimal hop count, so stretch falls
///    out per step.
///
///  * Workload generators — uniform, Zipf (rank-probability ∝ 1/rank^s),
///    read/write mixes, and an adversarial hotspot that hammers the keys
///    most recently re-homed by churn (the cache-miss storm a real system
///    sees after a rebuild).
///
///  * TrafficEngine — one trial's traffic state (store + generator + an RNG
///    independent of the adversary's), synced by the ScenarioRunner after
///    each applied ChurnBatch and driven one op at a time; its per-step
///    tallies flow into StepRecord and from there through every sink.
///
/// Serving cost per op stays well below one O(n + m) BFS: the store borrows
/// the flat CSR of the step's topology (graph/csr.h) from the caller's
/// AdversaryView, answers hop optima through a per-step DistanceOracle
/// (sim/oracle.h) whose point queries are meet-in-the-middle probes
/// (~O(sqrt n) vertices on an expander), and places keys with AnchorHash
/// (sim/anchor_hash.h): a key's home is one expected O(1 + ln(capacity /
/// alive)) lookup, and a step's churn re-homes only the keys it displaced.
///
/// This header sits between sim/overlay.h and sim/scenario.h: it needs the
/// overlay surface and the AdversaryView, while ScenarioSpec embeds
/// TrafficSpec — so it must not depend on scenario.h.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/adversary.h"
#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/churn.h"
#include "sim/anchor_hash.h"
#include "sim/oracle.h"
#include "sim/overlay.h"
#include "support/assert.h"
#include "support/prng.h"

namespace dex::sim {

/// The salt folded into a trial seed to derive the traffic RNG: request
/// generation must not perturb the adversary's decision stream (a spec with
/// traffic off and one with traffic on replay the same churn byte-for-byte).
inline constexpr std::uint64_t kTrafficSeedSalt = 0x7f4a7c159e3779b9ULL;

/// Declarative description of the request stream interleaved with churn.
/// Everything here is byte-determining: spec + seed reproduce the exact
/// request sequence.
struct TrafficSpec {
  /// Workload name ("uniform", "zipf", "hotspot"); empty = no traffic.
  std::string workload;
  /// Requests served after each churn step.
  std::size_t ops_per_step = 64;
  /// Distinct keys the generators draw from.
  std::size_t keyspace = 4096;
  /// Zipf exponent s (rank probability ∝ 1/rank^s); used by "zipf" and as
  /// the hotspot generator's background distribution.
  double zipf_s = 1.1;
  /// Fraction of operations on already-acknowledged keys that are reads;
  /// the rest (and every first touch of a key) are writes.
  double read_fraction = 0.75;

  [[nodiscard]] bool enabled() const { return !workload.empty(); }
};

/// The workload names TrafficEngine accepts, in canonical order.
[[nodiscard]] const std::vector<std::string>& known_workloads();

/// Comma-separated list of valid workload names (for usage messages).
[[nodiscard]] const char* workload_names();

/// One step's traffic tallies, folded into StepRecord by the runner.
/// Accounting contract: every op lands in exactly one bucket — delivered
/// ops (their hops feed op_hops/opt_hops), failed_lookups, or
/// failed_writes. Hops of failed ops never pollute the stretch ratio.
struct TrafficStepStats {
  std::size_t ops = 0;
  /// Reads of an acknowledged key that missed or returned a stale value —
  /// the "lost key" signal the conformance suite pins at zero.
  std::size_t failed_lookups = 0;
  /// Writes whose request could not be delivered (no live route from the
  /// origin to the key's home). Invisible before this counter existed: a
  /// dropped put left no ack and no metric.
  std::size_t failed_writes = 0;
  /// Total realized route hops across *completed* ops (gets pay the round
  /// trip).
  std::uint64_t op_hops = 0;
  /// Total BFS-optimal hops for the same (origin, home) pairs.
  std::uint64_t opt_hops = 0;
  /// Keys re-homed by this step's churn.
  std::size_t moved_keys = 0;
  /// Messages charged for those key transfers.
  std::uint64_t rehash_messages = 0;
};

/// Generic key-value store over any HealingOverlay. Placement is AnchorHash
/// (sim/anchor_hash.h) over buckets bound to node ids: its capacity is the
/// population bound (a ScenarioRunner passes the trial's resolved max_n),
/// each alive node holds one working bucket, and key k lives at the node
/// holding lookup(k). sync() must be called after every churn step, with
/// the post-churn view; it re-homes affected keys and charges their
/// transfer messages.
///
/// Placement contract (pinned by tests): a leave moves exactly the dead
/// node's keys; a join moves keys only onto the joiner, which takes the
/// most recently freed bucket; a leave and a join in one step give the
/// joiner exactly the dead node's keys. Placement is a function of the
/// key, the capacity, the initial alive set and the sequence of membership
/// changes (within a step: leaves, then joins, each ascending by id). A
/// join past the capacity doubles it, which re-homes keys wholesale.
class KvStore {
 public:
  KvStore(const HealingOverlay& overlay, std::size_t capacity);

  struct SyncStats {
    std::size_t moved_keys = 0;
    std::uint64_t messages = 0;
  };

  /// Refreshes the cached live view (one flat CSR per step, borrowed from
  /// the caller's AdversaryView), takes the view's sorted alive list and
  /// its difference from the previous one, and re-homes keys displaced by
  /// the change.
  /// Transfer charge per moved key: the BFS distance from its new home to
  /// its old one when the old host survived (a handover, priced with one
  /// two-sided probe), else the mean BFS distance from the new home (the
  /// expected recovery pull, one full frontier per such home).
  SyncStats sync(const adversary::AdversaryView& view);

  struct OpResult {
    /// Writes: stored. Reads: key present and a value returned. False when
    /// the key is absent or no live route exists (the latter never on a
    /// healing overlay maintaining connectivity).
    bool ok = false;
    std::uint64_t hops = 0;
    std::uint64_t optimal_hops = 0;
    std::optional<std::uint64_t> value;
  };

  /// Stores (key, value), overwriting a previous binding; routes from
  /// `origin` to the key's home (one-way). A churned-out origin re-enters
  /// through a deterministic live proxy (hash of the stale id into the
  /// alive-node space) — requests must never route from a dead node, and
  /// pinning every stale origin to one fixed node would manufacture a
  /// hotspot.
  OpResult put(std::uint64_t key, std::uint64_t value, graph::NodeId origin);

  /// Looks `key` up from `origin`. A hit pays the round trip (2x the
  /// one-way route); a miss pays only the one-way request (there is no
  /// value to carry back, and the op is failed — its hops must not pass
  /// for a served round trip in the stretch accounting); a routing failure
  /// pays nothing.
  OpResult get(std::uint64_t key, graph::NodeId origin);

  /// Removes the binding (one-way route); ok = it existed.
  OpResult erase(std::uint64_t key, graph::NodeId origin);

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Current home of `key`: its placement if stored, else where a write
  /// would place it now. Requires a prior sync().
  [[nodiscard]] graph::NodeId home(std::uint64_t key) const;

  /// Keys re-homed by the most recent sync(), ascending — the hotspot
  /// generator's target list.
  [[nodiscard]] const std::vector<std::uint64_t>& last_moved() const {
    return last_moved_;
  }

  /// Keys currently homed at any of `homes`, ascending (hotspot targeting).
  /// Costs O(|homes| + size()): the homes are marked in a bit set that is
  /// cleared again from the same list.
  [[nodiscard]] std::vector<std::uint64_t> keys_at(
      const std::vector<graph::NodeId>& homes) const;

  /// The live view adopted by the last sync() — borrowed straight from the
  /// caller's maintained CSR (zero copies; the AdversaryView's object
  /// identity is stable across steps). Requires a prior sync().
  [[nodiscard]] const graph::CsrView& live_view() const {
    DEX_ASSERT(csr_ != nullptr);
    return *csr_;
  }

  /// The ascending alive-node list as of the last sync(): a copy of
  /// view.alive_nodes() then, which origins use until the next sync() and
  /// the next sync() diffs against.
  [[nodiscard]] const std::vector<graph::NodeId>& alive() const {
    return alive_;
  }

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};

  /// The node serving `key` now.
  [[nodiscard]] graph::NodeId locate(std::uint64_t key) const {
    return bucket_node_[anchor_.lookup(key)];
  }
  /// Binds working bucket b to node v.
  void bind(std::uint32_t b, graph::NodeId v);
  /// Forgets a stored key's home: the last slot moves into its hole.
  void drop_home(std::uint64_t key);
  [[nodiscard]] graph::NodeId resolve_origin(graph::NodeId origin) const;
  /// Routes origin -> home; fills hops/optimal_hops; returns delivery.
  bool route_op(graph::NodeId origin, graph::NodeId home, OpResult& out);

  const HealingOverlay& overlay_;
  /// The step's live view: the caller's maintained CSR, borrowed from the
  /// AdversaryView's live_csr. Reset by sync().
  const graph::CsrView* csr_ = nullptr;
  DistanceOracle oracle_;
  std::vector<graph::NodeId> alive_;  ///< ascending; maintained by sync()
  bool synced_ = false;
  /// The capacity the first sync() sizes anchor_ with.
  std::size_t capacity_;
  AnchorHash anchor_;
  /// The bucket <-> node binding: the node holding each working bucket,
  /// and each alive node's bucket (kNoBucket for other ids).
  std::vector<graph::NodeId> bucket_node_;
  std::vector<std::uint32_t> node_bucket_;
  /// The placement table, dense so sync() and keys_at() walk it by index:
  /// slot i holds keys_[i] and its home homes_[i], and slot_of_ maps a key
  /// to its slot. Keys enter at the back and leave by swap-remove.
  std::vector<std::uint64_t> keys_;
  std::vector<graph::NodeId> homes_;
  std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  std::unordered_map<std::uint64_t, std::uint64_t> values_;
  std::vector<std::uint64_t> last_moved_;
  std::vector<graph::NodeId> added_scratch_;
  std::vector<graph::NodeId> removed_scratch_;
  /// keys_at()'s marks, one bit per node id: all-zero between calls.
  mutable std::vector<std::uint64_t> home_bits_;
};

/// One trial's traffic state: the store, the request generator and a traffic
/// RNG derived from the trial seed (independent of the adversary stream).
/// The ScenarioRunner calls observe_churn when each batch is drawn (the
/// hotspot workload notes which region is about to churn, reading adjacency
/// from the pre-churn live view) and begin_step once the batch has settled,
/// against the post-churn view; every request then goes through the one op
/// path, issue_op + complete_op.
class TrafficEngine {
 public:
  /// `capacity` sizes the store's placement (KvStore): the trial's
  /// population bound.
  TrafficEngine(const HealingOverlay& overlay, TrafficSpec spec,
                std::uint64_t trial_seed, std::size_t capacity);

  /// `view` supplies pre-churn adjacency for the hotspot generator's region
  /// capture (its live_csr: the runner's maintained CSR, not yet advanced
  /// past this batch).
  void observe_churn(const ChurnBatch& batch,
                     const adversary::AdversaryView& view);

  /// Adopts the post-churn view (KvStore::sync + hotspot target refresh)
  /// without serving anything; the returned stats carry only
  /// moved_keys/rehash_messages, and the step's ops fold into them after.
  TrafficStepStats begin_step(const adversary::AdversaryView& view);

  /// One request, split across time: issue_op() draws it (key, origin, read
  /// coin) at the client's decision point; complete_op() executes it
  /// against the store state of *its* moment. Lockstep and batch traffic
  /// complete each op right after issuing it (complete_op(issue_op(), st));
  /// the serving front-end (src/serve/) lets churn and other requests land
  /// in between, and resolves the queueing home itself via store().home().
  struct IssuedOp {
    std::uint64_t key = 0;
    graph::NodeId origin = graph::kInvalidNode;
    bool read = false;
  };
  [[nodiscard]] IssuedOp issue_op();

  /// Executes a previously issued op. Reads validate against the
  /// acknowledged value *at completion time* — a write to the same key
  /// completing in between legitimately changes the expected value, and
  /// checking the issue-time snapshot would manufacture false
  /// failed_lookups out of ordinary concurrency.
  void complete_op(const IssuedOp& op, TrafficStepStats& st);

  [[nodiscard]] const KvStore& store() const { return kv_; }

 private:
  [[nodiscard]] std::uint64_t pick_key();

  TrafficSpec spec_;
  KvStore kv_;
  support::Rng rng_;
  std::vector<double> zipf_cdf_;
  /// Acknowledged bindings: key -> last value whose write was delivered.
  std::unordered_map<std::uint64_t, std::uint64_t> acked_;
  std::uint64_t write_seq_ = 0;
  /// Hotspot state: the nodes observe_churn saw churning, and the target
  /// keys derived from them each step (displaced keys + keys homed in the
  /// churned region).
  std::vector<graph::NodeId> hot_nodes_;
  std::vector<std::uint64_t> hot_keys_;
};

}  // namespace dex::sim
