#include "adversary/adversary.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "graph/bfs.h"
#include "graph/conductance.h"
#include "sim/overlay.h"
#include "support/assert.h"

namespace dex::adversary {

namespace {

bool must_insert(const AdversaryView& view, std::size_t min_n) {
  return view.n() <= min_n;
}

bool must_delete(const AdversaryView& view, std::size_t max_n) {
  return view.n() >= max_n;
}

/// The population the batch builders never delete below: the driver's
/// min_n, but at least 4 (the runner refuses to delete the network below 3
/// nodes mid-batch).
std::size_t delete_floor(std::size_t min_n) {
  return std::max<std::size_t>(min_n, 4);
}

/// BFS distances from `src` over the live view (kUnreached off its
/// component).
std::vector<std::uint32_t> distances_from(const graph::CsrView& g,
                                          NodeId src) {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  graph::csr_bfs_fill(g, src, dist, queue);
  return dist;
}

/// Uniform attach points over the survivors of `dying`, at most
/// sim::kMaxAttachPerNode newcomers per node (§5's multiplicity cap).
void push_capped_attaches(const AdversaryView& view, support::Rng& rng,
                          const std::unordered_set<NodeId>& dying,
                          std::size_t count,
                          std::vector<NodeId>& attach_to) {
  if (count == 0) return;
  const auto& nodes = view.alive_nodes();
  std::unordered_map<NodeId, std::size_t> mult;
  std::size_t placed = 0;
  for (std::size_t tries = 0; placed < count && tries < 8 * count + 16;
       ++tries) {
    const NodeId a = nodes[rng.below(nodes.size())];
    if (dying.contains(a) || mult[a] >= sim::kMaxAttachPerNode) continue;
    attach_to.push_back(a);
    ++mult[a];
    ++placed;
  }
}

}  // namespace

// ----------------------------------------------------------- AdversaryView

AdversaryView::AdversaryView(const sim::HealingOverlay& overlay)
    : overlay_(overlay), removal_oracle_(overlay.has_removal_oracle()) {}

std::size_t AdversaryView::n() const { return overlay_.n(); }

const std::vector<NodeId>& AdversaryView::alive_nodes() const {
  if (!nodes_) nodes_ = overlay_.alive_nodes();
  return *nodes_;
}

std::size_t AdversaryView::load(NodeId u) const { return overlay_.load(u); }

NodeId AdversaryView::special_node() const { return overlay_.special_node(); }

graph::Multigraph AdversaryView::snapshot_without(NodeId u) const {
  return overlay_.snapshot_without(u);
}

graph::CsrView::PortsFn AdversaryView::ports_fn() const {
  return [this](NodeId u, std::vector<NodeId>& out) {
    const bool ok = overlay_.live_ports(u, out);
    // Callers probe the capability before choosing this enumerator, and a
    // precise journal delta implies the overlay is in a calm (enumerable)
    // state — see the staggered full-marks in dex/staggered.cpp.
    DEX_ASSERT_MSG(ok, "live_ports withdrawn mid-build");
  };
}

const graph::CsrView& AdversaryView::live_csr() const {
  if (!csr_valid_) {
    const std::vector<bool> mask = overlay_.alive_mask();
    // Prefer the overlay's own row enumerator: rows come out in the same
    // order apply_delta() re-derives them, so later advance() calls can
    // patch this build in place instead of discarding it. The capability
    // is probed per build (DEX withdraws it during staggered windows).
    const auto first = std::find(mask.begin(), mask.end(), true);
    std::vector<NodeId> probe;
    if (first != mask.end() &&
        overlay_.live_ports(static_cast<NodeId>(first - mask.begin()),
                            probe)) {
      csr_.build_from_ports(mask, ports_fn());
      csr_ports_canonical_ = true;
    } else {
      // Fallback (flood, DEX inside a staggered window): build from a
      // local snapshot. Rows land in snapshot port order — a valid view,
      // but not patchable.
      csr_.build(overlay_.snapshot(), mask);
      csr_ports_canonical_ = false;
    }
    csr_valid_ = true;
  }
  return csr_;
}

void AdversaryView::advance() {
  nodes_.reset();
  delta_.clear();
  // Always drain — even when the standing CSR is unpatchable — so the
  // journal never carries deltas across a rebuild boundary. The first drain
  // also installs the journal on the overlay (and reports "full" for the
  // untracked history before it).
  const bool drained = overlay_.drain_view_delta(delta_);
  if (!drained || delta_.full || !csr_valid_ || !csr_ports_canonical_) {
    // No journal, coarse delta, or a snapshot-ordered view: fall back to
    // the lazy from-scratch rebuild on next use.
    csr_valid_ = false;
  } else if (!delta_.empty()) {
    csr_.apply_delta(delta_, ports_fn());
  }
  // Opt-in cross-check: DEX_CHECK_CSR=1 rebuilds a reference view after
  // every patch and asserts semantic equality (tests and debugging; the
  // rebuild obviously forfeits the incremental speedup).
  // det: opt-in debug gate — flips extra *checking* on, never changes what
  // the run computes or emits.
  static const bool check_csr = std::getenv("DEX_CHECK_CSR") != nullptr;
  if (check_csr && csr_valid_) {
    graph::CsrView ref;
    ref.build_from_ports(overlay_.alive_mask(), ports_fn());
    DEX_ASSERT_MSG(csr_.equal_to(ref),
                   "incremental CSR diverged from a fresh rebuild");
  }
}

// -------------------------------------------------------- batch machinery

std::vector<NodeId> sample_safe_victims(const graph::CsrView& g,
                                        const std::vector<NodeId>& order,
                                        std::size_t want) {
  std::vector<NodeId> victims;
  if (want == 0) return victims;
  std::vector<bool> blocked(g.node_count(), false);
  std::vector<std::uint32_t> lost(g.node_count(), 0);
  for (NodeId v : order) {
    if (victims.size() >= want) break;
    if (!g.alive(v) || blocked[v]) continue;
    // Victims are kept pairwise non-adjacent (neighbors get blocked), so a
    // chosen victim's neighbors all survive — which already gives it a
    // surviving neighbor, provided it has a non-self neighbor at all.
    const auto ports = g.neighbors(v);
    bool ok = std::any_of(ports.begin(), ports.end(),
                          [v](NodeId w) { return w != v; });
    // Don't orphan a survivor: w must keep an edge after losing the ports
    // to v and to every previously chosen victim.
    for (std::size_t i = 0; ok && i < ports.size(); ++i) {
      const NodeId w = ports[i];
      if (w == v) continue;
      const auto row = g.neighbors(w);
      const auto to_v =
          static_cast<std::size_t>(std::count(row.begin(), row.end(), v));
      ok = row.size() > lost[w] + to_v;
    }
    if (!ok) continue;
    victims.push_back(v);
    blocked[v] = true;
    for (NodeId w : ports) {
      if (w == v) continue;
      blocked[w] = true;
      ++lost[w];
    }
  }
  // Trim until the survivors are connected (rarely needed on expanders).
  std::vector<bool> removed(g.node_count(), false);
  for (NodeId v : victims) removed[v] = true;
  while (!victims.empty() && !graph::survivors_connected(g, removed)) {
    removed[victims.back()] = false;
    victims.pop_back();
  }
  return victims;
}

sim::ChurnBatch Strategy::next_batch(const AdversaryView& view,
                                     support::Rng& rng, std::size_t min_n,
                                     std::size_t max_n,
                                     std::size_t batch_size) {
  sim::ChurnBatch batch;
  std::unordered_set<NodeId> dying;
  std::unordered_set<NodeId> attached;
  // Project the population ourselves: next() keeps reading the stale
  // pre-batch view, so its own bound enforcement cannot be trusted past
  // the first event.
  std::size_t n = view.n();
  // A strategy that decides deterministically off the (stale) view keeps
  // proposing the same event — e.g. CoordinatorKiller's fixed victim, or
  // GreedySpectralDeletion re-running its expensive sweep to the same
  // answer. A run of consecutive discards means the stale view has nothing
  // new to offer; stop early instead of burning next() calls.
  const std::size_t attempts = 4 * batch_size + 16;
  std::size_t consecutive_discards = 0;
  for (std::size_t a = 0; a < attempts && batch.size() < batch_size &&
                          consecutive_discards < 8;
       ++a) {
    const ChurnAction act = next(view, rng, min_n, max_n);
    if (act.insert) {
      if (n >= max_n || dying.contains(act.target)) {
        ++consecutive_discards;
        continue;
      }
      batch.attach_to.push_back(act.target);
      attached.insert(act.target);
      ++n;
    } else {
      // Attach points must survive the batch, so a node already used as one
      // cannot become a victim afterwards (and vice versa, above).
      if (n <= delete_floor(min_n) || dying.contains(act.target) ||
          attached.contains(act.target)) {
        ++consecutive_discards;
        continue;
      }
      batch.victims.push_back(act.target);
      dying.insert(act.target);
      --n;
    }
    consecutive_discards = 0;
  }
  return batch;
}

ChurnAction RandomChurn::next(const AdversaryView& view, support::Rng& rng,
                              std::size_t min_n, std::size_t max_n) {
  bool ins = rng.chance(p_);
  if (must_insert(view, min_n)) ins = true;
  if (must_delete(view, max_n)) ins = false;
  return {ins, random_alive(view, rng)};
}

ChurnAction InsertOnly::next(const AdversaryView& view, support::Rng& rng,
                             std::size_t /*min_n*/, std::size_t /*max_n*/) {
  return {true, random_alive(view, rng)};
}

ChurnAction DeleteOnly::next(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t /*max_n*/) {
  if (must_insert(view, min_n)) return {true, random_alive(view, rng)};
  return {false, random_alive(view, rng)};
}

ChurnAction Oscillate::next(const AdversaryView& view, support::Rng& rng,
                            std::size_t min_n, std::size_t max_n) {
  const bool insert_phase = (tick_++ / k_) % 2 == 0;
  bool ins = insert_phase;
  if (must_insert(view, min_n)) ins = true;
  if (must_delete(view, max_n)) ins = false;
  return {ins, random_alive(view, rng)};
}

ChurnAction CoordinatorKiller::next(const AdversaryView& view,
                                    support::Rng& rng, std::size_t min_n,
                                    std::size_t max_n) {
  insert_next_ = !insert_next_;
  const bool ins = must_insert(view, min_n) ||
                   (insert_next_ && !must_delete(view, max_n));
  if (ins) return {true, random_alive(view, rng)};
  const NodeId c = view.special_node();
  if (c != graph::kInvalidNode) return {false, c};
  return {false, random_alive(view, rng)};
}

ChurnAction LoadAttack::next(const AdversaryView& view, support::Rng& rng,
                             std::size_t min_n, std::size_t max_n) {
  // Find the max-load node (the adversary has full knowledge).
  NodeId heaviest = graph::kInvalidNode;
  std::size_t best = 0;
  for (NodeId u : view.alive_nodes()) {
    const std::size_t l = view.load(u);
    if (heaviest == graph::kInvalidNode || l > best) {
      heaviest = u;
      best = l;
    }
  }
  insert_next_ = !insert_next_;
  bool ins = insert_next_;
  if (must_insert(view, min_n)) ins = true;
  if (must_delete(view, max_n)) ins = false;
  if (ins) return {true, heaviest};  // pile newcomers onto the heaviest node
  (void)rng;
  return {false, heaviest};  // or knock it out
}

ChurnAction SpectralAttack::next(const AdversaryView& view,
                                 support::Rng& rng, std::size_t min_n,
                                 std::size_t max_n) {
  if (must_insert(view, min_n) || kill_queue_.empty()) {
    // Refill the kill queue periodically: nodes of the sparse side that
    // touch the cut, sparsest-incident first.
    if (tick_++ % period_ == 0 || kill_queue_.empty()) {
      const auto cut = graph::sweep_cut(view.live_csr());
      kill_queue_.clear();
      for (NodeId u : cut.side) kill_queue_.push_back(u);
      if (!cut.side.empty()) anchor_ = cut.side.front();
    }
    if (must_insert(view, min_n) || view.n() < max_n / 2) {
      // Grow the anchored side to keep the cut starved.
      NodeId at = anchor_;
      if (!view.live_csr().alive(at)) at = random_alive(view, rng);
      return {true, at};
    }
  }
  while (!kill_queue_.empty()) {
    const NodeId v = kill_queue_.front();
    kill_queue_.pop_front();
    if (view.live_csr().alive(v) && view.n() > min_n) {
      return {false, v};
    }
  }
  return {false, random_alive(view, rng)};
}

ChurnAction GreedySpectralDeletion::next(const AdversaryView& view,
                                         support::Rng& rng,
                                         std::size_t min_n,
                                         std::size_t max_n) {
  if (must_insert(view, min_n) ||
      (rng.chance(insert_ratio_) && !must_delete(view, max_n))) {
    return {true, random_alive(view, rng)};
  }
  const auto& nodes = view.alive_nodes();
  const graph::CsrView& live = view.live_csr();
  graph::SpectralOptions opts;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-7;
  NodeId best = nodes[rng.below(nodes.size())];
  double best_gap = 2.0;
  for (std::size_t c = 0; c < candidates_; ++c) {
    const NodeId v = nodes[rng.below(nodes.size())];
    // Removing v's edges can orphan a neighbor; every node left without an
    // edge drops out too (the solver's no-isolated-nodes precondition).
    double gap = 0.0;
    if (view.has_removal_oracle()) {
      const graph::Multigraph g = view.snapshot_without(v);
      std::vector<bool> mask(g.node_count(), false);
      for (NodeId u = 0; u < g.node_count(); ++u) {
        mask[u] = u != v && live.alive(u) && g.degree(u) > 0;
      }
      gap = graph::spectral_gap(g, mask, opts).gap;
    } else {
      // No healing oracle: evaluate the raw hole.
      std::vector<bool> excluded(live.node_count(), false);
      for (NodeId u = 0; u < live.node_count(); ++u) {
        const auto row = live.neighbors(u);
        excluded[u] = u == v || std::all_of(row.begin(), row.end(),
                                            [v](NodeId w) { return w == v; });
      }
      gap = graph::spectral_gap(live, excluded, opts).gap;
    }
    if (gap < best_gap) {
      best_gap = gap;
      best = v;
    }
  }
  return {false, best};
}

sim::ChurnBatch BurstChurn::next_batch(const AdversaryView& view,
                                       support::Rng& rng, std::size_t min_n,
                                       std::size_t max_n,
                                       std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  std::size_t inserts = 0;
  std::size_t deletes = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    if (rng.chance(frac_)) {
      ++inserts;
    } else {
      ++deletes;
    }
  }
  inserts = std::min(inserts, max_n > n ? max_n - n : 0);
  const std::size_t floor_n = delete_floor(min_n);
  deletes = n > floor_n ? std::min(deletes, n - floor_n) : 0;

  if (deletes > 0) {
    auto order = view.alive_nodes();
    rng.shuffle(order);
    batch.victims = sample_safe_victims(view.live_csr(), order, deletes);
  }
  const std::unordered_set<NodeId> dying(batch.victims.begin(),
                                         batch.victims.end());
  push_capped_attaches(view, rng, dying, inserts, batch.attach_to);
  return batch;
}

ChurnAction FlashCrowd::next(const AdversaryView& view, support::Rng& rng,
                             std::size_t /*min_n*/, std::size_t max_n) {
  if (must_delete(view, max_n)) return {false, random_alive(view, rng)};
  return {true, random_alive(view, rng)};
}

sim::ChurnBatch FlashCrowd::next_batch(const AdversaryView& view,
                                       support::Rng& rng, std::size_t min_n,
                                       std::size_t max_n,
                                       std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  const std::size_t inserts =
      std::min(batch_size, max_n > n ? max_n - n : 0);
  if (inserts > 0) {
    push_capped_attaches(view, rng, {}, inserts, batch.attach_to);
    return batch;
  }
  // At the cap: a departure wave makes room for the next arrival wave.
  const std::size_t floor_n = delete_floor(min_n);
  const std::size_t deletes =
      n > floor_n ? std::min(batch_size, n - floor_n) : 0;
  auto order = view.alive_nodes();
  rng.shuffle(order);
  batch.victims = sample_safe_victims(view.live_csr(), order, deletes);
  return batch;
}

ChurnAction CorrelatedFailure::next(const AdversaryView& view,
                                    support::Rng& rng, std::size_t min_n,
                                    std::size_t /*max_n*/) {
  if (must_insert(view, min_n)) return {true, random_alive(view, rng)};
  return {false, random_alive(view, rng)};
}

sim::ChurnBatch CorrelatedFailure::next_batch(const AdversaryView& view,
                                              support::Rng& rng,
                                              std::size_t min_n,
                                              std::size_t max_n,
                                              std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  const std::size_t floor_n = delete_floor(min_n);
  if (n <= floor_n) {
    // At the floor: a recovery wave of insertions keeps the run alive.
    const std::size_t inserts =
        std::min(batch_size, max_n > n ? max_n - n : 0);
    push_capped_attaches(view, rng, {}, inserts, batch.attach_to);
    return batch;
  }
  const std::size_t deletes = std::min(batch_size, n - floor_n);
  const graph::CsrView& g = view.live_csr();
  const auto& nodes = view.alive_nodes();
  // Victims cluster around a random epicenter: candidates ordered by BFS
  // distance, nearest first (the safe sampler then thins the cluster to
  // keep the §5 preconditions).
  const NodeId epicenter = nodes[rng.below(nodes.size())];
  const auto dist = distances_from(g, epicenter);
  auto order = nodes;
  std::stable_sort(order.begin(), order.end(), [&dist](NodeId a, NodeId b) {
    return dist[a] < dist[b];
  });
  batch.victims = sample_safe_victims(g, order, deletes);
  if (batch.empty() && n < max_n) {
    // Nothing safely deletable (tiny or fragile remainder): fall back to a
    // single insertion so the scenario keeps making progress.
    batch.attach_to.push_back(random_alive(view, rng));
  }
  return batch;
}

sim::ChurnBatch OracleBuster::next_batch(const AdversaryView& view,
                                         support::Rng& rng, std::size_t min_n,
                                         std::size_t max_n,
                                         std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  const std::size_t floor_n = delete_floor(min_n);
  std::size_t deletes =
      n > floor_n ? std::min(batch_size / 2, n - floor_n) : 0;
  const std::size_t inserts =
      std::min(batch_size - deletes, max_n > n ? max_n - n : 0);
  const graph::CsrView& g = view.live_csr();
  const auto& nodes = view.alive_nodes();
  // Ring the candidates by BFS distance from a random epicenter and
  // consume the rings round-robin, farthest first — consecutive victims
  // land in different regions, which is exactly what defeats a
  // locality-amortizing oracle memo.
  const NodeId epicenter = nodes[rng.below(nodes.size())];
  const auto dist = distances_from(g, epicenter);
  std::uint32_t max_d = 0;
  for (NodeId u : nodes) {
    if (dist[u] != graph::kUnreached) max_d = std::max(max_d, dist[u]);
  }
  std::vector<std::vector<NodeId>> rings(static_cast<std::size_t>(max_d) + 1);
  for (NodeId u : nodes) {
    if (dist[u] != graph::kUnreached) rings[dist[u]].push_back(u);
  }
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  for (std::size_t depth = 0; order.size() < nodes.size(); ++depth) {
    bool any = false;
    for (std::size_t r = rings.size(); r-- > 0;) {
      if (depth < rings[r].size()) {
        order.push_back(rings[r][depth]);
        any = true;
      }
    }
    if (!any) break;
  }
  if (deletes > 0) batch.victims = sample_safe_victims(g, order, deletes);
  const std::unordered_set<NodeId> dying(batch.victims.begin(),
                                         batch.victims.end());
  // Attach points scatter the same way: walk the interleaved ring order so
  // newcomers (and the key ranges they take over) spread across regions.
  std::unordered_map<NodeId, std::size_t> mult;
  std::size_t placed = 0;
  for (NodeId a : order) {
    if (placed >= inserts) break;
    if (dying.contains(a) || mult[a] >= sim::kMaxAttachPerNode) continue;
    batch.attach_to.push_back(a);
    ++mult[a];
    ++placed;
  }
  return batch;
}

std::vector<std::uint32_t> ChordAttack::chord_scores(
    const AdversaryView& view, support::Rng& rng,
    const graph::CsrView& g) const {
  const auto& nodes = view.alive_nodes();
  std::vector<std::uint32_t> score(g.node_count(), 0);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  // Betweenness proxy: over a few random BFS roots, credit u once per
  // downhill edge it feeds (dist[w] == dist[u] + 1) — nodes carrying many
  // shortest-path trees are the chord/shortcut carriers.
  for (std::size_t s = 0; s < sources_; ++s) {
    const NodeId src = nodes[rng.below(nodes.size())];
    graph::csr_bfs_fill(g, src, dist, queue);
    for (NodeId u : nodes) {
      if (dist[u] == graph::kUnreached) continue;
      for (NodeId w : g.neighbors(u)) {
        if (w != u && dist[w] == dist[u] + 1) ++score[u];
      }
    }
  }
  return score;
}

ChurnAction ChordAttack::next(const AdversaryView& view, support::Rng& rng,
                              std::size_t min_n, std::size_t max_n) {
  insert_next_ = !insert_next_;
  const bool ins = must_insert(view, min_n) ||
                   (insert_next_ && !must_delete(view, max_n));
  if (ins) return {true, random_alive(view, rng)};
  const auto score = chord_scores(view, rng, view.live_csr());
  NodeId best = graph::kInvalidNode;
  for (NodeId u : view.alive_nodes()) {
    if (best == graph::kInvalidNode || score[u] > score[best]) best = u;
  }
  return {false, best};
}

sim::ChurnBatch ChordAttack::next_batch(const AdversaryView& view,
                                        support::Rng& rng, std::size_t min_n,
                                        std::size_t max_n,
                                        std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  const std::size_t floor_n = delete_floor(min_n);
  if (n <= floor_n) {
    const std::size_t inserts =
        std::min(batch_size, max_n > n ? max_n - n : 0);
    push_capped_attaches(view, rng, {}, inserts, batch.attach_to);
    return batch;
  }
  const std::size_t deletes = std::min(batch_size, n - floor_n);
  const graph::CsrView& g = view.live_csr();
  const auto score = chord_scores(view, rng, g);
  auto order = view.alive_nodes();
  std::stable_sort(order.begin(), order.end(),
                   [&score](NodeId a, NodeId b) { return score[a] > score[b]; });
  batch.victims = sample_safe_victims(g, order, deletes);
  if (batch.empty() && n < max_n) {
    batch.attach_to.push_back(random_alive(view, rng));
  }
  return batch;
}

ChurnAction SpectralBatch::next(const AdversaryView& view, support::Rng& rng,
                                std::size_t min_n, std::size_t max_n) {
  if (must_insert(view, min_n)) return {true, random_alive(view, rng)};
  const graph::CsrView& g = view.live_csr();
  const auto cut = graph::sweep_cut(g);
  if (!cut.side.empty() && !must_delete(view, max_n)) {
    // Single-event mode: peel the cut side one boundary node at a time.
    NodeId best = cut.side.front();
    std::size_t best_out = 0;
    std::vector<bool> in_side(g.node_count(), false);
    for (NodeId u : cut.side) in_side[u] = true;
    for (NodeId u : cut.side) {
      std::size_t out = 0;
      for (NodeId w : g.neighbors(u)) {
        if (w != u && !in_side[w]) ++out;
      }
      if (out > best_out) {
        best_out = out;
        best = u;
      }
    }
    return {false, best};
  }
  return {false, random_alive(view, rng)};
}

sim::ChurnBatch SpectralBatch::next_batch(const AdversaryView& view,
                                          support::Rng& rng,
                                          std::size_t min_n,
                                          std::size_t max_n,
                                          std::size_t batch_size) {
  sim::ChurnBatch batch;
  const std::size_t n = view.n();
  const std::size_t floor_n = delete_floor(min_n);
  const graph::CsrView& g = view.live_csr();
  const auto cut = graph::sweep_cut(g);
  std::vector<bool> in_side(g.node_count(), false);
  for (NodeId u : cut.side) in_side[u] = true;
  if (n > floor_n && !cut.side.empty()) {
    const std::size_t deletes = std::min(batch_size, n - floor_n);
    // Boundary-first: the cut-side nodes with the most cut-crossing edges
    // are the ones holding the two halves together.
    std::vector<std::size_t> crossing(g.node_count(), 0);
    for (NodeId u : cut.side) {
      for (NodeId w : g.neighbors(u)) {
        if (w != u && !in_side[w]) ++crossing[u];
      }
    }
    auto order = cut.side;
    std::stable_sort(order.begin(), order.end(),
                     [&crossing](NodeId a, NodeId b) {
                       return crossing[a] > crossing[b];
                     });
    batch.victims = sample_safe_victims(g, order, deletes);
  }
  // Leftover budget: grow the opposite side, starving the cut of repair
  // material (mirrors SpectralAttack's anchor, at batch multiplicity).
  const std::size_t leftover =
      batch_size > batch.victims.size() ? batch_size - batch.victims.size()
                                        : 0;
  const std::size_t inserts = std::min(leftover, max_n > n ? max_n - n : 0);
  if (inserts > 0) {
    const std::unordered_set<NodeId> dying(batch.victims.begin(),
                                           batch.victims.end());
    std::vector<NodeId> anchors;
    for (NodeId u : view.alive_nodes()) {
      if (!in_side[u] && !dying.contains(u)) anchors.push_back(u);
    }
    if (anchors.empty()) {
      push_capped_attaches(view, rng, dying, inserts, batch.attach_to);
    } else {
      std::size_t placed = 0;
      for (std::size_t depth = 0; placed < inserts; ++depth) {
        bool any = false;
        for (NodeId a : anchors) {
          if (placed >= inserts) break;
          if (depth < sim::kMaxAttachPerNode) {
            batch.attach_to.push_back(a);
            ++placed;
            any = true;
          }
        }
        if (!any) break;
      }
    }
  }
  return batch;
}

ChurnAction Scripted::next(const AdversaryView& view, support::Rng& rng,
                           std::size_t /*min_n*/, std::size_t /*max_n*/) {
  (void)view;
  (void)rng;
  DEX_ASSERT_MSG(at_ < script_.size(), "scripted adversary exhausted");
  return script_[at_++];
}

sim::ChurnBatch Scripted::next_batch(const AdversaryView& /*view*/,
                                     support::Rng& /*rng*/,
                                     std::size_t /*min_n*/,
                                     std::size_t /*max_n*/,
                                     std::size_t batch_size) {
  sim::ChurnBatch batch;
  for (std::size_t i = 0; i < batch_size; ++i) {
    DEX_ASSERT_MSG(at_ < script_.size(), "scripted adversary exhausted");
    const ChurnAction& a = script_[at_++];
    (a.insert ? batch.attach_to : batch.victims).push_back(a.target);
  }
  return batch;
}

}  // namespace dex::adversary
