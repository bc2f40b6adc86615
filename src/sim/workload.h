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
///    hash into the *alive-node space* by rendezvous (highest-random-weight)
///    hashing, so one membership change re-homes only the affected keys
///    (the paper's hash-to-vertex scheme, mix64(k) mod p, would re-hash
///    every key on each p-cycle rebuild). Requests route through
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
/// (~O(sqrt n) vertices on an expander), and re-homes keys from per-key
/// top-K rendezvous candidate lists instead of rescanning the whole alive
/// set. The full scan that a key's first write (or a rare rescan) still
/// pays is a blocked, vectorized top-(K+1) kernel (sim/hrw_scan.h): blocks
/// of 64 alive ids are scored branch-free and skipped whole unless their
/// maximum beats the running (K+1)-th best, with an AVX-512 copy of the
/// scoring loop picked once per process by CPU feature.
///
/// This header sits between sim/overlay.h and sim/scenario.h: it needs the
/// overlay surface and the AdversaryView, while ScenarioSpec embeds
/// TrafficSpec — so it must not depend on scenario.h.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/adversary.h"
#include "graph/csr.h"
#include "graph/multigraph.h"
#include "sim/churn.h"
#include "sim/hrw_scan.h"
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

/// Generic key-value store over any HealingOverlay. Placement is rendezvous
/// hashing into the alive-node set: key k lives at the alive node u
/// maximizing a per-(k, u) hash, so node joins/leaves re-home only the keys
/// whose maximum changed (unlike mod-hashing, which re-homes almost
/// everything on every membership change). sync() must be called after
/// every churn step, with the post-churn view; it re-homes affected keys
/// and charges their transfer messages.
///
/// Placement invariant (pinned by tests): after every sync(), each stored
/// key's home equals the rendezvous argmax over the *current* alive set —
/// keys rebalance onto joiners that out-score the incumbent, exactly as a
/// fresh store would place them. sync() maintains this incrementally: each
/// key carries its top-K rendezvous candidates, so a death of the home
/// promotes the best surviving candidate (exact, because no node outside
/// the list can out-score its members) and only a fully-died-out list pays
/// a rescan of the alive set.
class KvStore {
 public:
  explicit KvStore(const HealingOverlay& overlay);

  struct SyncStats {
    std::size_t moved_keys = 0;
    std::uint64_t messages = 0;
  };

  /// Refreshes the cached live view (one flat CSR per step, borrowed from
  /// the caller's AdversaryView), updates the sorted alive set
  /// incrementally from the membership delta, and re-homes keys displaced
  /// by the change.
  /// Transfer charge per moved key: the BFS distance from its new home to
  /// its old one when the old host survived, else the mean BFS distance
  /// from the new home (the expected recovery pull).
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

  /// Current home of `key` (its placement if stored, else where it would be
  /// placed). Requires a prior sync().
  [[nodiscard]] graph::NodeId home(std::uint64_t key) const;

  /// Keys re-homed by the most recent sync(), ascending — the hotspot
  /// generator's target list.
  [[nodiscard]] const std::vector<std::uint64_t>& last_moved() const {
    return last_moved_;
  }

  /// Keys currently homed at any of `homes`, ascending (hotspot targeting).
  [[nodiscard]] std::vector<std::uint64_t> keys_at(
      const std::vector<graph::NodeId>& homes) const;

  /// The live view adopted by the last sync() — borrowed straight from the
  /// caller's maintained CSR (zero copies; the AdversaryView's object
  /// identity is stable across steps). Requires a prior sync().
  [[nodiscard]] const graph::CsrView& live_view() const {
    DEX_ASSERT(csr_ != nullptr);
    return *csr_;
  }

  /// The ascending alive-node list maintained by sync() — the same content
  /// view.alive_nodes() would return, without the per-step copy.
  [[nodiscard]] const std::vector<graph::NodeId>& alive() const {
    return alive_;
  }

 private:
  /// Candidates a key keeps per placement, best first. 8 deaths of a key's
  /// candidates between rescans are essentially impossible under bounded
  /// churn, so rescans are rare; exactness never depends on the constant.
  static constexpr std::size_t kHomeCandidates = 8;

  using Candidate = detail::HrwCandidate;
  /// Top rendezvous candidates by (score desc, id asc); [0] is the home.
  /// `floor` bounds every *alive non-member's* score (the best score ever
  /// scanned past, skipped, or truncated out), so the first entry is the
  /// exact alive argmax whenever its score clears the floor — and sync()
  /// rescans when it does not, which is the only way a pushed-out node
  /// could have become the winner again. Inline fixed-capacity array: one
  /// Placement per stored key, so a heap vector here is an allocation per
  /// key and a pointer chase per placement read.
  struct Placement {
    std::array<Candidate, kHomeCandidates> top{};
    std::uint32_t count = 0;
    std::uint64_t floor = 0;
    [[nodiscard]] graph::NodeId home() const { return top[0].node; }
  };

  /// Places `key` from scratch over the whole alive set: detail::hrw_top
  /// over the ascending alive_, with the block body detail::hrw_block()
  /// picked once for this CPU (AVX-512F/DQ/VL or portable; same bits).
  /// The result is the top kHomeCandidates by (score desc, id asc) and, as
  /// the floor, the next-best score (0 when no more nodes are alive) —
  /// exactly the Placement merge_candidate builds by merging every alive
  /// node into an empty list, since every node left outside it was
  /// skipped or truncated there and the floor is the largest such score.
  [[nodiscard]] Placement scan_candidates(std::uint64_t key) const;
  static void merge_candidate(Placement& pl, Candidate c);
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
  std::unordered_map<std::uint64_t, Placement> placed_;
  std::unordered_map<std::uint64_t, std::uint64_t> values_;
  std::vector<std::uint64_t> last_moved_;
  std::vector<graph::NodeId> alive_scratch_;
  std::vector<graph::NodeId> added_scratch_;
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
  TrafficEngine(const HealingOverlay& overlay, TrafficSpec spec,
                std::uint64_t trial_seed);

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
