#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "graph/bfs.h"
#include "support/assert.h"

namespace dex::sim {

using graph::kInvalidNode;
using graph::NodeId;

namespace {

/// Appends the ids of `from` missing from `to` to `gone`, and those of `to`
/// missing from `from` to `come`; both lists ascending. std::mismatch runs
/// through the matching stretches between the few differences about nine
/// times faster than std::set_difference's three-way merge: 22 against
/// 198 us for 31,623 ids with 8 leaves and 8 joins (Release, gcc 12, one
/// core of a shared 4-vCPU VM).
void sorted_diff(const std::vector<NodeId>& from, const std::vector<NodeId>& to,
                 std::vector<NodeId>& gone, std::vector<NodeId>& come) {
  auto f = from.begin();
  auto t = to.begin();
  while (true) {
    std::tie(f, t) = std::mismatch(f, from.end(), t, to.end());
    if (f == from.end() || t == to.end()) break;
    if (*f < *t) {
      gone.push_back(*f++);
    } else {
      come.push_back(*t++);
    }
  }
  gone.insert(gone.end(), f, from.end());
  come.insert(come.end(), t, to.end());
}

}  // namespace

// ------------------------------------------------------------------ KvStore

KvStore::KvStore(const HealingOverlay& overlay, std::size_t capacity)
    : overlay_(overlay), capacity_(capacity) {}

void KvStore::bind(std::uint32_t b, NodeId v) {
  bucket_node_[b] = v;
  if (node_bucket_.size() <= v) node_bucket_.resize(v + 1, kNoBucket);
  node_bucket_[v] = b;
}

void KvStore::drop_home(std::uint64_t key) {
  const auto it = slot_of_.find(key);
  if (it == slot_of_.end()) return;
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  if (slot + 1 != keys_.size()) {
    keys_[slot] = keys_.back();
    homes_[slot] = homes_.back();
    slot_of_[keys_[slot]] = slot;
  }
  keys_.pop_back();
  homes_.pop_back();
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

  const std::vector<NodeId>& now = view.alive_nodes();
  last_moved_.clear();
  SyncStats out;
  if (!synced_) {
    // The first view's alive nodes take buckets 0, 1, ... in order.
    DEX_ASSERT_MSG(!now.empty(), "KvStore over an empty overlay");
    const std::size_t cap = std::max(capacity_, now.size());
    anchor_ = AnchorHash(static_cast<std::uint32_t>(cap),
                         static_cast<std::uint32_t>(now.size()));
    bucket_node_.assign(cap, kInvalidNode);
    for (std::uint32_t b = 0; b < now.size(); ++b) bind(b, now[b]);
    alive_.assign(now.begin(), now.end());
    synced_ = true;
    return out;
  }
  // Membership delta against the previous alive list: both lists are
  // ascending, and the view keeps its own patched from the churn journal.
  added_scratch_.clear();
  removed_scratch_.clear();
  sorted_diff(alive_, now, removed_scratch_, added_scratch_);
  alive_.assign(now.begin(), now.end());
  if (added_scratch_.empty() && removed_scratch_.empty()) return out;

  // Leaves free their buckets, then joins re-take the latest freed ones. A
  // join into a full anchor doubles it: every bucket works then, so the
  // binding carries over, but every key's first bucket changes.
  for (const NodeId v : removed_scratch_) {
    anchor_.remove(node_bucket_[v]);
    node_bucket_[v] = kNoBucket;
  }
  bool regrown = false;
  for (const NodeId v : added_scratch_) {
    if (anchor_.full()) {
      const std::uint32_t cap = anchor_.capacity();
      anchor_ = AnchorHash(2 * cap, cap);
      bucket_node_.resize(2 * cap, kInvalidNode);
      regrown = true;
    }
    bind(anchor_.add(), v);
  }

  struct Move {
    std::uint64_t key;
    NodeId from;
    NodeId to;
  };
  std::vector<Move> moves;
  // A key whose home survived moves only onto a joiner, and only if its
  // first bucket does not work: a working first bucket is its home.
  const bool joined = !added_scratch_.empty();
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    const std::uint64_t key = keys_[slot];
    const NodeId from = homes_[slot];
    if (!regrown && csr_->alive(from) &&
        (!joined || node_bucket_[from] == anchor_.first_bucket(key))) {
      continue;
    }
    const NodeId to = locate(key);
    if (to == from) continue;
    homes_[slot] = to;
    moves.push_back({key, from, to});
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
  const auto it = slot_of_.find(key);
  const NodeId h = it != slot_of_.end() ? homes_[it->second] : locate(key);
  if (!route_op(resolve_origin(origin), h, r)) return r;
  if (it == slot_of_.end()) {
    slot_of_.emplace(key, keys_.size());
    keys_.push_back(key);
    homes_.push_back(h);
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
  drop_home(key);
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
    const NodeId h = homes_[slot];
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
  const auto it = slot_of_.find(key);
  return it != slot_of_.end() ? homes_[it->second] : locate(key);
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
                             std::uint64_t trial_seed, std::size_t capacity)
    : spec_(std::move(spec)),
      kv_(overlay, capacity),
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
