#include <algorithm>

#include "dex/network.h"
#include "support/mathutil.h"

/// \file staggered.cpp
/// Worst-case type-2 recovery: the coordinator protocol (Algorithm 4.7) and
/// the staggered inflate/deflate rebuilds (Algorithms 4.8/4.9). A rebuild is
/// spread over Θ(n) adversarial steps; each step activates a constant-size
/// group of old vertices. Phase 1 builds the next p-cycle alongside the
/// current one (intermediate edges point at the *future* owner's current
/// host); at its end the network swaps to the new cycle and Phase 2 discards
/// the old cycle group by group.

namespace dex {

// ---------------------------------------------------------------------------
// Coordinator (Algorithm 4.7)
// ---------------------------------------------------------------------------

void DexNetwork::refresh_coordinator_counters() {
  coord_.n = n_alive_;
  coord_.spare = map_.spare_count();
  coord_.low = map_.low_count();
}

void DexNetwork::notify_coordinator(NodeId from) {
  if (prm_.mode == RecoveryMode::WorstCase) {
    // The repairing node routes its load deltas to the owner of vertex 0
    // along a locally computable shortest path in the virtual graph.
    Vertex rep = 0;
    if (!map_.sim(from).empty()) {
      rep = map_.sim(from)[0];
    } else if (build_ && !build_->new_sim[from].empty()) {
      rep = build_generator(build_->new_sim[from][0]);
    }
    const std::uint32_t d = cyc_->distance_to_zero(rep);
    meter_.add_messages(d);
    meter_.add_rounds(d);
  }
  refresh_coordinator_counters();
}

// ---------------------------------------------------------------------------
// Staggered-state helpers
// ---------------------------------------------------------------------------

Vertex DexNetwork::build_generator(Vertex y) const {
  DEX_ASSERT(build_);
  return build_->inflating ? build_->infl->parent(y)
                           : build_->defl->dominating(y);
}

bool DexNetwork::build_processed(Vertex y) const {
  return build_generator(y) < build_->progress;
}

NodeId DexNetwork::owner_future(Vertex y) const {
  DEX_ASSERT(build_);
  const NodeId o = build_->phi_new[y];
  if (o != kInvalidNode) return o;  // materialized or claimed
  DEX_ASSERT(!build_processed(y));
  return map_.owner(build_generator(y));
}

std::int64_t DexNetwork::spare_new_capacity(NodeId w) const {
  DEX_ASSERT(build_ && !build_->inflating);
  std::int64_t avail = build_->new_load[w];
  for (Vertex z : map_.sim(w)) {
    if (z >= build_->progress && build_->defl->is_dominating(z) &&
        build_->phi_new[build_->defl->image(z)] == kInvalidNode)
      ++avail;
  }
  return avail - 1;  // one vertex stays reserved for w itself
}

void DexNetwork::grant_new_vertex(NodeId w, NodeId to) {
  DEX_ASSERT(build_ && !build_->inflating);
  if (build_->new_load[w] >= 2) {
    transfer_new_vertex(build_->new_sim[w].back(), to);
    return;
  }
  for (Vertex z : map_.sim(w)) {
    if (z >= build_->progress && build_->defl->is_dominating(z)) {
      const Vertex y = build_->defl->image(z);
      if (build_->phi_new[y] == kInvalidNode) {
        build_->phi_new[y] = to;
        build_->claims[to].push_back(y);
        meter_.add_messages(2);
        return;
      }
    }
  }
  DEX_ASSERT_MSG(false, "grant_new_vertex called without capacity");
}

void DexNetwork::transfer_new_vertex(Vertex y, NodeId to) {
  DEX_ASSERT(build_);
  const NodeId from = build_->phi_new[y];
  DEX_ASSERT(from != kInvalidNode);
  if (from == to) return;
  auto& fs = build_->new_sim[from];
  auto it = std::find(fs.begin(), fs.end(), y);
  DEX_ASSERT(it != fs.end());
  *it = fs.back();
  fs.pop_back();
  --build_->new_load[from];
  build_->phi_new[y] = to;
  build_->new_sim[to].push_back(y);
  ++build_->new_load[to];
  meter_.add_topology(6);
  meter_.add_messages(2);
}

void DexNetwork::transfer_old_residual(Vertex x, NodeId to) {
  DEX_ASSERT(tear_);
  const NodeId from = tear_->phi_old[x];
  if (from == to) return;
  auto& fs = tear_->old_sim[from];
  const std::uint32_t at = tear_->pos_old[x];
  DEX_ASSERT(fs[at] == x);
  fs[at] = fs.back();
  tear_->pos_old[fs[at]] = at;
  fs.pop_back();
  --tear_->old_load[from];
  tear_->phi_old[x] = to;
  tear_->pos_old[x] = static_cast<std::uint32_t>(tear_->old_sim[to].size());
  tear_->old_sim[to].push_back(x);
  ++tear_->old_load[to];
  meter_.add_topology(6);
  meter_.add_messages(2);
}

void DexNetwork::shed_excess_new_load(NodeId from) {
  DEX_ASSERT(build_);
  while (build_->new_load[from] > prm_.max_load()) {
    NodeId w = kInvalidNode;
    for (std::uint64_t attempt = 0; attempt <= prm_.max_walk_retries;
         ++attempt) {
      w = type1_walk(from, [&](NodeId c) {
        return alive(c) && c != from &&
               build_->new_load[c] < prm_.low_threshold();
      });
      if (w != kInvalidNode) break;
      ++report_.walk_retries;
    }
    DEX_ASSERT_MSG(w != kInvalidNode, "shed_excess_new_load walk exhausted");
    transfer_new_vertex(build_->new_sim[from].back(), w);
  }
}

// ---------------------------------------------------------------------------
// Trigger & pacing
// ---------------------------------------------------------------------------

std::uint64_t DexNetwork::staggered_batch(std::uint64_t p_len) const {
  // Finish a phase within ~θ·n steps while activating Θ(1/θ) vertices per
  // step (§4.4.1: groups of ⌈1/θ⌉).
  const auto per_step = static_cast<std::uint64_t>(
      std::max(1.0, prm_.theta * static_cast<double>(n_alive_)));
  const std::uint64_t by_deadline = (p_len + per_step - 1) / per_step;
  const auto group = static_cast<std::uint64_t>(1.0 / prm_.theta) + 1;
  return std::max(group, by_deadline);
}

void DexNetwork::maybe_trigger_staggered() {
  if (prm_.mode != RecoveryMode::WorstCase || staggered_active()) return;
  const auto thr = static_cast<std::uint64_t>(
      3.0 * prm_.theta * static_cast<double>(n_alive_));
  if (map_.spare_count() < std::max<std::uint64_t>(thr, 1)) {
    start_staggered(/*inflate=*/true);
  } else if (map_.low_count() < std::max<std::uint64_t>(thr, 1) &&
             map_.p() >= 60 && map_.p() > 8 * n_alive_) {
    start_staggered(/*inflate=*/false);
  }
}

void DexNetwork::start_staggered(bool inflate) {
  DEX_ASSERT(!staggered_active());
  journal_full();  // the view journal stays coarse for the whole window
  const std::uint64_t p_old = map_.p();
  build_.emplace();
  BuildState& b = *build_;
  b.inflating = inflate;
  b.p_new = inflate ? support::inflation_prime(p_old)
                    : support::deflation_prime(p_old);
  b.cyc_new = std::make_unique<PCycle>(b.p_new);
  if (inflate) {
    b.infl.emplace(p_old, b.p_new);
  } else {
    b.defl.emplace(p_old, b.p_new);
  }
  b.phi_new.assign(b.p_new, kInvalidNode);
  b.new_sim.assign(alive_.size(), {});
  b.new_load.assign(alive_.size(), 0);
  b.claims.assign(alive_.size(), {});
  b.progress = 0;
  b.batch = staggered_batch(p_old);
  if (inflate) {
    ++inflations_;
  } else {
    ++deflations_;
  }
  report_.type2_event = true;
  // Coordinator activates the first group: O(log n) routing.
  meter_.add_messages(cyc_->distance_to_zero(1) + 1);
  advance_build();
}

void DexNetwork::advance_staggered() {
  if (build_) {
    journal_full();  // group activation rewires many rows; don't itemize
    advance_build();
  } else if (tear_) {
    journal_full();
    advance_teardown();
  }
}

// ---------------------------------------------------------------------------
// Phase 1: building the next cycle
// ---------------------------------------------------------------------------

void DexNetwork::advance_build() {
  BuildState& b = *build_;
  const std::uint64_t p_old = map_.p();
  const std::uint64_t end = std::min(b.progress + b.batch, p_old);
  std::uint64_t max_route = 0;
  std::vector<NodeId> touched;
  for (Vertex x = b.progress; x < end; ++x) {
    touched.push_back(map_.owner(x));
    max_route = std::max(max_route, process_build_vertex(x));
  }
  b.progress = end;
  meter_.add_rounds(max_route + 1);
  // Coordinator hands the baton to the next group.
  meter_.add_messages(cyc_->distance_to_zero(end % p_old) + 1);

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  if (b.inflating) {
    // Nodes whose NewSim outgrew 4ζ shed the excess by random walks.
    for (NodeId o : touched) {
      if (alive_[o] && b.new_load[o] > prm_.max_load())
        shed_excess_new_load(o);
    }
  } else {
    // Deflation: owners whose processed vertices were all dominated become
    // contending and grab a future vertex elsewhere (Alg. 4.9 line 4).
    for (NodeId o : touched) {
      if (!alive_[o]) continue;
      if (b.new_load[o] > 0 || !b.claims[o].empty()) continue;
      bool has_future = false;
      for (Vertex z : map_.sim(o)) {
        if (z >= b.progress && b.defl->is_dominating(z) &&
            b.phi_new[b.defl->image(z)] == kInvalidNode) {
          has_future = true;
          break;
        }
      }
      if (has_future) continue;
      NodeId w = kInvalidNode;
      for (std::uint64_t attempt = 0; attempt <= prm_.max_walk_retries;
           ++attempt) {
        w = type1_walk(o, [&](NodeId c) {
          return alive(c) && c != o && spare_new_capacity(c) >= 2;
        });
        if (w != kInvalidNode) break;
        ++report_.walk_retries;
      }
      DEX_ASSERT_MSG(w != kInvalidNode, "contending walk exhausted");
      grant_new_vertex(w, o);
    }
  }

  if (b.progress == p_old) finish_build_phase();
}

std::uint64_t DexNetwork::process_build_vertex(Vertex x) {
  BuildState& b = *build_;
  const NodeId o = map_.owner(x);
  std::uint64_t max_route = 0;

  auto materialize = [&](Vertex y) {
    NodeId tgt = b.phi_new[y];
    if (tgt == kInvalidNode) {
      tgt = o;
      b.phi_new[y] = o;
    } else {
      auto& cl = b.claims[tgt];
      const auto it = std::find(cl.begin(), cl.end(), y);
      DEX_ASSERT(it != cl.end());
      cl.erase(it);
    }
    b.new_sim[tgt].push_back(y);
    ++b.new_load[tgt];
    // Cycle edges: located via the old cycle's neighborhood, O(1) hops.
    meter_.add_topology(3);
    meter_.add_messages(4);
    // Inverse edge: the future owner of y^{-1} is reachable by routing to
    // the generator of y^{-1} on the *current* cycle.
    const Vertex y_inv = b.cyc_new->inv(y);
    const Vertex gen = b.inflating ? b.infl->parent(y_inv)
                                   : b.defl->dominating(y_inv);
    if (gen != x) {
      const std::uint64_t d = cyc_->distance(x, gen);
      meter_.add_messages(d);
      max_route = std::max(max_route, d);
    }
  };

  if (b.inflating) {
    const std::uint64_t cx = b.infl->c(x);
    for (std::uint64_t j = 0; j <= cx; ++j) materialize(b.infl->child(x, j));
  } else if (b.defl->is_dominating(x)) {
    materialize(b.defl->image(x));
  }
  return max_route;
}

void DexNetwork::finish_build_phase() {
  BuildState b = std::move(*build_);

  VirtualMapping nm(b.p_new, alive_.size(), prm_.low_threshold());
  for (Vertex y = 0; y < b.p_new; ++y) {
    DEX_ASSERT_MSG(b.phi_new[y] != kInvalidNode && alive_[b.phi_new[y]],
                   "new vertex unowned at swap");
    nm.assign(y, b.phi_new[y]);
  }

  // Teardown state snapshots the current (old) cycle before the swap.
  TeardownState t;
  const std::uint64_t p_old = map_.p();
  t.p_old = p_old;
  t.cyc_old = std::move(cyc_);
  t.phi_old.resize(p_old);
  t.pos_old.resize(p_old);
  t.old_sim.assign(alive_.size(), {});
  t.old_load.assign(alive_.size(), 0);
  for (Vertex x = 0; x < p_old; ++x) {
    const NodeId o = map_.owner(x);
    t.phi_old[x] = o;
    t.pos_old[x] = static_cast<std::uint32_t>(t.old_sim[o].size());
    t.old_sim[o].push_back(x);
    ++t.old_load[o];
  }
  t.progress = 0;
  t.batch = staggered_batch(p_old);

  map_ = std::move(nm);
  cyc_ = std::move(b.cyc_new);
  build_.reset();
  tear_.emplace(std::move(t));
  ++cycle_epoch_;
  meter_.add_messages(1);  // coordinator state handover to new owner of 0
  refresh_coordinator_counters();
}

// ---------------------------------------------------------------------------
// Phase 2: discarding the old cycle
// ---------------------------------------------------------------------------

void DexNetwork::advance_teardown() {
  TeardownState& t = *tear_;
  const std::uint64_t end = std::min(t.progress + t.batch, t.p_old);
  for (Vertex x = t.progress; x < end; ++x) {
    const NodeId o = t.phi_old[x];
    auto& fs = t.old_sim[o];
    const std::uint32_t at = t.pos_old[x];
    DEX_ASSERT(fs[at] == x);
    fs[at] = fs.back();
    t.pos_old[fs[at]] = at;
    fs.pop_back();
    --t.old_load[o];
    meter_.add_topology(3);  // x's (at most) three old edges die
    meter_.add_messages(3);
  }
  t.progress = end;
  meter_.add_rounds(1);
  meter_.add_messages(cyc_->distance_to_zero(0) + 1);
  if (t.progress == t.p_old) tear_.reset();
}

}  // namespace dex
