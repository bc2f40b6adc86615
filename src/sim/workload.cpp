#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "graph/bfs.h"
#include "sim/hrw_scan.h"
#include "support/assert.h"

// GNU-compatible x86 compilers also build an AVX-512 copy of the
// block-scoring loop, chosen at run time by __builtin_cpu_supports.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define DEX_HRW_AVX512 1
#endif

namespace dex::sim {

using graph::kInvalidNode;
using graph::NodeId;

namespace {

/// Rendezvous (HRW) weight of `node` for a pre-mixed key hash. 64-bit mixes
/// make ties essentially impossible; candidate ordering still breaks them
/// by id so placement is a pure function of (key, alive set).
std::uint64_t hrw_score(std::uint64_t key_hash, NodeId node) {
  return support::mix64(key_hash ^ (0x9e3779b97f4a7c15ULL * (node + 1)));
}

/// Strict-weak order on candidates: higher score first, lower id on the
/// (essentially impossible) score tie — the argmax rule best_home always
/// used, applied to the whole list.
bool candidate_better(NodeId node, std::uint64_t score, NodeId than_node,
                      std::uint64_t than_score) {
  return score > than_score || (score == than_score && node < than_node);
}

/// The block-scoring loop of the rendezvous scan (sim/hrw_scan.h). Forced
/// inline, at -O0 too, so each wrapper below compiles its own copy for its
/// own target. Branch-free: where the target has 64-bit vector multiplies
/// (AVX-512DQ's vpmullq) the compiler vectorizes the score mix and the
/// running maximum together.
[[gnu::always_inline]]
inline std::uint64_t hrw_block_body(std::uint64_t key_hash, const NodeId* ids,
                                    std::size_t n, std::uint64_t* scores) {
  std::uint64_t block_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = hrw_score(key_hash, ids[i]);
    scores[i] = s;
    block_max = std::max(block_max, s);
  }
  return block_max;
}

#ifdef DEX_HRW_AVX512
[[gnu::target("avx512f,avx512dq,avx512vl")]]
std::uint64_t hrw_block_avx512_impl(std::uint64_t key_hash, const NodeId* ids,
                                    std::size_t n, std::uint64_t* scores) {
  return hrw_block_body(key_hash, ids, n, scores);
}
#endif

}  // namespace

namespace detail {

std::uint64_t hrw_block_portable(std::uint64_t key_hash, const NodeId* ids,
                                 std::size_t n, std::uint64_t* scores) {
  return hrw_block_body(key_hash, ids, n, scores);
}

HrwBlockFn hrw_block_avx512() {
#ifdef DEX_HRW_AVX512
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return &hrw_block_avx512_impl;
  }
#endif
  return nullptr;
}

HrwBlockFn hrw_block() {
  static const HrwBlockFn picked = [] {
    const HrwBlockFn avx512 = hrw_block_avx512();
    return avx512 != nullptr ? avx512 : &hrw_block_portable;
  }();
  return picked;
}

}  // namespace detail

// ------------------------------------------------------------------ KvStore

KvStore::KvStore(const HealingOverlay& overlay) : overlay_(overlay) {}

void KvStore::merge_candidate(Placement& pl, Candidate c) {
  if (pl.count == kHomeCandidates &&
      !candidate_better(c.node, c.score, pl.top[kHomeCandidates - 1].node,
                        pl.top[kHomeCandidates - 1].score)) {
    // Skipped: c joins the non-members, so it raises the floor.
    pl.floor = std::max(pl.floor, c.score);
    return;
  }
  // Insert in (score desc, id asc) order; expected O(1) amortized — a
  // random stream rarely beats the current K-th best.
  std::size_t i = pl.count;
  if (i == kHomeCandidates) {
    // The truncated minimum becomes a non-member too.
    pl.floor = std::max(pl.floor, pl.top[kHomeCandidates - 1].score);
    --i;
  }
  while (i > 0 && !candidate_better(pl.top[i - 1].node, pl.top[i - 1].score,
                                    c.node, c.score)) {
    pl.top[i] = pl.top[i - 1];
    --i;
  }
  pl.top[i] = c;
  if (pl.count < kHomeCandidates) ++pl.count;
}

KvStore::Placement KvStore::scan_candidates(std::uint64_t key) const {
  DEX_ASSERT_MSG(!alive_.empty(), "KvStore over an empty overlay");
  const auto best = detail::hrw_top<kHomeCandidates>(
      support::mix64(key), alive_, detail::hrw_block());
  Placement pl;
  pl.top = best.top;
  pl.count = best.count;
  pl.floor = best.floor;
  return pl;
}

const KvStore::Placement* KvStore::placed(std::uint64_t key) const {
  const auto it = slot_of_.find(key);
  return it == slot_of_.end() ? nullptr : &placements_[it->second];
}

void KvStore::drop_placement(std::uint64_t key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) return;
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  if (slot + 1 != keys_.size()) {
    keys_[slot] = keys_.back();
    placements_[slot] = placements_.back();
    slot_of_[keys_[slot]] = slot;
  }
  keys_.pop_back();
  placements_.pop_back();
}

const KvStore::Placement& KvStore::unplaced(std::uint64_t key) const {
  auto it = scanned_.find(key);
  if (it == scanned_.end()) {
    it = scanned_.emplace(key, scan_candidates(key)).first;
  }
  return it->second;
}

NodeId KvStore::resolve_origin(NodeId origin) const {
  if (origin != kInvalidNode && csr_->alive(origin)) return origin;
  return alive_[support::mix64(origin) % alive_.size()];
}

bool KvStore::route_op(NodeId origin, NodeId home, OpResult& out) {
  if (overlay_.route_is_shortest()) {
    // The realized path is the BFS optimum already, so the op needs only a
    // distance — one oracle query (a two-sided probe, or free from a
    // memoized root) instead of materializing a fresh path per request.
    const std::uint32_t d = oracle_.distance(origin, home);
    if (d == graph::kUnreached) return false;
    out.hops = d;
    out.optimal_hops = d;
    return true;
  }
  const auto path = overlay_.route(origin, home, *csr_);
  if (path.empty()) return false;
  out.hops = static_cast<std::uint64_t>(path.size() - 1);
  const std::uint32_t d = oracle_.distance(origin, home);
  out.optimal_hops = d != graph::kUnreached ? d : out.hops;
  return true;
}

KvStore::SyncStats KvStore::sync(const adversary::AdversaryView& view) {
  // One flat CSR per step, borrowed *by reference* from the caller's view
  // (maintained incrementally, its object identity stable across steps —
  // no copy at all).
  csr_ = &view.live_csr();
  oracle_.attach(*csr_);

  // Membership delta against the previous alive list: both lists are
  // ascending, and the view keeps its own patched from the churn journal.
  const std::vector<NodeId>& now = view.alive_nodes();
  added_scratch_.clear();
  std::set_difference(now.begin(), now.end(), alive_.begin(), alive_.end(),
                      std::back_inserter(added_scratch_));
  const std::size_t surviving = now.size() - added_scratch_.size();
  const bool any_removed = surviving != alive_.size();
  const bool first = !synced_;
  alive_.assign(now.begin(), now.end());
  synced_ = true;
  scanned_.clear();
  last_moved_.clear();
  SyncStats out;
  if (first || keys_.empty()) return out;
  const auto& added = added_scratch_;
  if (added.empty() && !any_removed) return out;  // membership unchanged

  struct Move {
    std::uint64_t key;
    NodeId from;
    NodeId to;
  };
  std::vector<Move> moves;
  // Each placement updates on its own (joiner merge, then promotion), and
  // `moves` is sorted below before anything reads it.
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    const std::uint64_t key = keys_[slot];
    Placement& pl = placements_[slot];
    const NodeId old_home = pl.home();
    if (!added.empty()) {
      // Incumbent weights are unchanged; joiners merge into the candidate
      // list (and take the lead when they out-score it).
      const std::uint64_t kh = support::mix64(key);
      for (const NodeId a : added) {
        merge_candidate(pl, Candidate{a, hrw_score(kh, a)});
      }
    }
    // Promote the best surviving candidate. Exact as long as it clears the
    // floor — otherwise a node pushed out of the list earlier could be the
    // true winner, and only a rescan of the alive set can tell. (Only the
    // leading dead entries are pruned, matching the historical vector
    // behavior; deeper dead entries fall out when they surface.)
    std::uint32_t lead = 0;
    while (lead < pl.count && !csr_->alive(pl.top[lead].node)) ++lead;
    if (lead > 0) {
      for (std::uint32_t i = lead; i < pl.count; ++i) {
        pl.top[i - lead] = pl.top[i];
      }
      pl.count -= lead;
    }
    if (pl.count == 0 || pl.top[0].score < pl.floor) {
      pl = scan_candidates(key);
    }
    if (pl.home() != old_home) moves.push_back({key, old_home, pl.home()});
  }
  if (moves.empty()) return out;

  // A transfer costs the exact old->new distance when the old host survived
  // (a handover: one two-sided probe), else the mean distance from the new
  // home (the expected pull from wherever the healed overlay recovered the
  // item), which needs a full BFS from it. Orphaned keys sort first within
  // each destination, so that BFS, when one is needed, is memoized before
  // the handovers to the same home and answers them too; the step's ops
  // aimed at that home reuse it for free.
  std::sort(moves.begin(), moves.end(), [this](const Move& a, const Move& b) {
    if (a.to != b.to) return a.to < b.to;
    const bool a_orphan = !csr_->alive(a.from);
    const bool b_orphan = !csr_->alive(b.from);
    return a_orphan != b_orphan ? a_orphan : a.key < b.key;
  });
  for (const Move& m : moves) {
    const std::uint32_t d = oracle_.distance(m.to, m.from);
    if (d != graph::kUnreached) {
      out.messages += d;
    } else {
      const auto reach = oracle_.reach(m.to);
      out.messages += std::max<std::uint64_t>(
          reach.count ? reach.sum / reach.count : 1, 1);
    }
  }
  for (const Move& m : moves) last_moved_.push_back(m.key);
  std::sort(last_moved_.begin(), last_moved_.end());
  out.moved_keys = moves.size();
  return out;
}

KvStore::OpResult KvStore::put(std::uint64_t key, std::uint64_t value,
                               NodeId origin) {
  DEX_ASSERT_MSG(synced_, "KvStore::sync must run before operations");
  OpResult r;
  if (const Placement* pl = placed(key)) {
    if (!route_op(resolve_origin(origin), pl->home(), r)) return r;
  } else {
    const Placement& fresh = unplaced(key);
    if (!route_op(resolve_origin(origin), fresh.home(), r)) return r;
    slot_of_.emplace(key, keys_.size());
    keys_.push_back(key);
    placements_.push_back(fresh);
    scanned_.erase(key);
  }
  values_[key] = value;
  r.ok = true;
  return r;
}

KvStore::OpResult KvStore::get(std::uint64_t key, NodeId origin) {
  DEX_ASSERT_MSG(synced_, "KvStore::sync must run before operations");
  OpResult r;
  if (!route_op(resolve_origin(origin), home(key), r)) return r;
  const auto vit = values_.find(key);
  // A miss pays only the one-way request: no value travels back, and a
  // failed op's hops must not pass for a served round trip.
  if (vit == values_.end()) return r;
  r.hops *= 2;  // request + reply
  r.optimal_hops *= 2;
  r.ok = true;
  r.value = vit->second;
  return r;
}

KvStore::OpResult KvStore::erase(std::uint64_t key, NodeId origin) {
  DEX_ASSERT_MSG(synced_, "KvStore::sync must run before operations");
  OpResult r;
  if (!route_op(resolve_origin(origin), home(key), r)) return r;
  r.ok = values_.erase(key) > 0;
  drop_placement(key);
  return r;
}

std::vector<std::uint64_t> KvStore::keys_at(
    const std::vector<NodeId>& homes) const {
  std::vector<std::uint64_t> out;
  if (homes.empty() || keys_.empty()) return out;
  const std::size_t n = csr_->node_count();
  if (home_bits_.size() < (n + 63) / 64) home_bits_.resize((n + 63) / 64, 0);
  for (const NodeId h : homes) {
    if (h < n) home_bits_[h >> 6] |= std::uint64_t{1} << (h & 63);
  }
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    const NodeId h = placements_[slot].home();
    if (((home_bits_[h >> 6] >> (h & 63)) & 1) != 0) {
      out.push_back(keys_[slot]);
    }
  }
  for (const NodeId h : homes) {
    if (h < n) home_bits_[h >> 6] = 0;
  }
  std::sort(out.begin(), out.end());
  return out;
}

NodeId KvStore::home(std::uint64_t key) const {
  DEX_ASSERT_MSG(synced_, "KvStore::sync must run before operations");
  const Placement* pl = placed(key);
  return pl != nullptr ? pl->home() : unplaced(key).home();
}

// ------------------------------------------------------------ TrafficEngine

const std::vector<std::string>& known_workloads() {
  static const std::vector<std::string> names{"uniform", "zipf", "hotspot"};
  return names;
}

const char* workload_names() {
  // Joined from the registry so usage strings can never drift from what
  // TrafficEngine actually accepts.
  static const std::string joined = [] {
    std::string s;
    for (const auto& name : known_workloads()) {
      if (!s.empty()) s += ", ";
      s += name;
    }
    return s;
  }();
  return joined.c_str();
}

TrafficEngine::TrafficEngine(const HealingOverlay& overlay, TrafficSpec spec,
                             std::uint64_t trial_seed)
    : spec_(std::move(spec)),
      kv_(overlay),
      rng_(trial_seed ^ kTrafficSeedSalt) {
  DEX_ASSERT_MSG(std::find(known_workloads().begin(), known_workloads().end(),
                           spec_.workload) != known_workloads().end(),
                 "unknown workload name");
  DEX_ASSERT_MSG(spec_.keyspace > 0, "traffic needs a non-empty keyspace");
  if (spec_.workload != "uniform") {
    // Zipf CDF over key ranks (key identity == rank: low keys are hot);
    // also the hotspot workload's background distribution.
    zipf_cdf_.reserve(spec_.keyspace);
    double total = 0.0;
    for (std::size_t i = 0; i < spec_.keyspace; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), spec_.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (auto& c : zipf_cdf_) c /= total;
  }
}

std::uint64_t TrafficEngine::pick_key() {
  if (spec_.workload == "hotspot" && !hot_keys_.empty() && rng_.chance(0.8)) {
    return hot_keys_[rng_.below(hot_keys_.size())];
  }
  if (zipf_cdf_.empty()) return rng_.below(spec_.keyspace);
  const double u = rng_.uniform01();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::uint64_t>(it - zipf_cdf_.begin());
}

void TrafficEngine::observe_churn(const ChurnBatch& batch,
                                  const adversary::AdversaryView& view) {
  if (spec_.workload != "hotspot") return;
  // The region about to churn: every attach point plus every victim's
  // current neighborhood (the victims themselves will be gone by the time
  // requests fire; their neighbors inherit the turbulence). Adjacency comes
  // from the runner's maintained CSR — not yet advanced past this batch, so
  // exactly the pre-churn view — never from a fresh snapshot copy.
  std::vector<NodeId> region = batch.attach_to;
  const graph::CsrView& g = view.live_csr();
  for (const NodeId v : batch.victims) {
    for (const NodeId u : g.neighbors(v)) region.push_back(u);
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  hot_nodes_ = std::move(region);
}

TrafficStepStats TrafficEngine::begin_step(
    const adversary::AdversaryView& view) {
  TrafficStepStats st;
  const auto sync = kv_.sync(view);
  st.moved_keys = sync.moved_keys;
  st.rehash_messages = sync.messages;
  if (spec_.workload == "hotspot") {
    // Primary targets: the keys churn just displaced (post-rebuild cache
    // misses). Secondary: whatever still lives in the churned region.
    hot_keys_ = kv_.last_moved();
    auto regional = kv_.keys_at(hot_nodes_);
    hot_keys_.insert(hot_keys_.end(), regional.begin(), regional.end());
    std::sort(hot_keys_.begin(), hot_keys_.end());
    hot_keys_.erase(std::unique(hot_keys_.begin(), hot_keys_.end()),
                    hot_keys_.end());
  }
  return st;
}

TrafficEngine::IssuedOp TrafficEngine::issue_op() {
  // Draws in this order: key, origin, read coin (the coin only when the key
  // is acknowledged right now). The origin pool is the store's ascending
  // alive list, the view's as of the last sync.
  const auto& nodes = kv_.alive();
  DEX_ASSERT(!nodes.empty());
  IssuedOp op;
  op.key = pick_key();
  op.origin = nodes[rng_.below(nodes.size())];
  op.read = acked_.contains(op.key) && rng_.chance(spec_.read_fraction);
  return op;
}

void TrafficEngine::complete_op(const IssuedOp& op, TrafficStepStats& st) {
  KvStore::OpResult r;
  if (op.read) {
    r = kv_.get(op.key, op.origin);
    // Validate against the acknowledged value as of *now*: an intervening
    // acknowledged write moved the goalposts legitimately. The entry must
    // still exist — the read coin required an ack and nothing retracts one.
    const auto known = acked_.find(op.key);
    DEX_ASSERT(known != acked_.end());
    if (!r.ok || !r.value || *r.value != known->second) ++st.failed_lookups;
  } else {
    const std::uint64_t value = support::mix64(op.key ^ ++write_seq_);
    r = kv_.put(op.key, value, op.origin);
    if (r.ok) {
      acked_[op.key] = value;
    } else {
      // The write never reached the key's home: no ack, no stored value.
      ++st.failed_writes;
    }
  }
  ++st.ops;
  // Hop totals cover completed ops only — a request that never got a
  // reply has no round trip to account, and folding its hops into the
  // stretch ratio would reward losing requests.
  if (r.ok) {
    st.op_hops += r.hops;
    st.opt_hops += r.optimal_hops;
  }
}

}  // namespace dex::sim
