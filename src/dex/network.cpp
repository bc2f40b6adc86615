#include "dex/network.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sim/flood.h"
#include "sim/token_engine.h"
#include "support/mathutil.h"

namespace dex {

namespace {

constexpr std::uint64_t kRebalanceEpochLimit = 400;

}  // namespace

DexNetwork::DexNetwork(std::size_t n0, Params params)
    : prm_(params), rng_(params.seed) {
  DEX_ASSERT_MSG(n0 >= 2, "initial network needs at least 2 nodes");
  DEX_ASSERT(prm_.theta > 0 && prm_.theta < 0.5);
  const std::uint64_t p0 =
      support::inflation_prime(static_cast<std::uint64_t>(n0));
  cyc_ = std::make_unique<PCycle>(p0);
  map_ = VirtualMapping(p0, n0, prm_.low_threshold());
  alive_.assign(n0, true);
  n_alive_ = n0;
  // Round-robin deal: loads differ by at most 1 and p0 < 8n0 keeps every
  // load ≤ 8 ≤ 4ζ — a balanced surjective mapping (Def. 3).
  for (Vertex z = 0; z < p0; ++z)
    map_.assign(z, static_cast<NodeId>(z % n0));
  refresh_coordinator_counters();
}

std::vector<NodeId> DexNetwork::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(n_alive_);
  for (NodeId u = 0; u < alive_.size(); ++u) {
    if (alive_[u]) out.push_back(u);
  }
  return out;
}

std::uint64_t DexNetwork::total_load(NodeId u) const {
  std::uint64_t t = map_.load(u);
  if (build_) t += build_->new_load[u] + build_->claims[u].size();
  if (tear_) t += tear_->old_load[u];
  return t;
}

graph::Multigraph DexNetwork::snapshot() const {
  graph::Multigraph g(alive_.size());
  // Degree convention (matches ports_of and Lemma 10's contraction): a
  // virtual edge between two *distinct* vertices at the same node becomes a
  // self-loop counting 2 (one port per endpoint); the p-cycle's own
  // self-loops (at 0, 1, p−1) count 1.
  auto add = [&g](NodeId a, NodeId b, bool distinct_vertices) {
    g.add_edge(a, b);
    if (distinct_vertices && a == b) g.add_edge(a, b);
  };
  cyc_->for_each_edge([&](Vertex x, Vertex y) {
    add(map_.owner(x), map_.owner(y), x != y);
  });
  if (build_) {
    build_->cyc_new->for_each_edge([&](Vertex a, Vertex b) {
      if (build_processed(a) || build_processed(b))
        add(owner_future(a), owner_future(b), a != b);
    });
  }
  if (tear_) {
    tear_->cyc_old->for_each_edge([&](Vertex a, Vertex b) {
      if (a >= tear_->progress && b >= tear_->progress)
        add(tear_->phi_old[a], tear_->phi_old[b], a != b);
    });
  }
  return g;
}

bool DexNetwork::live_ports(NodeId u, std::vector<NodeId>& out) const {
  out.clear();
  append_ports(u, out);
  if (!build_) return true;
  // Reverse ports of u's unprocessed future vertices toward processed ones:
  // its claims, and the unclaimed children/images of its current vertices
  // at or above `progress` (only deflation grants claims).
  const auto reverse_ports = [&](Vertex y) {
    for (Vertex w : build_->cyc_new->ports(y)) {
      if (build_processed(w)) out.push_back(build_->phi_new[w]);
    }
  };
  for (Vertex y : build_->claims[u]) reverse_ports(y);
  for (Vertex x : map_.sim(u)) {
    if (x < build_->progress) continue;
    if (build_->inflating) {
      for (std::uint64_t j = 0; j <= build_->infl->c(x); ++j)
        reverse_ports(build_->infl->child(x, j));
    } else if (build_->defl->is_dominating(x) &&
               build_->phi_new[build_->defl->image(x)] == kInvalidNode) {
      reverse_ports(build_->defl->image(x));
    }
  }
  return true;
}

void DexNetwork::ports_of(NodeId u, std::vector<std::uint64_t>& out) const {
  out.clear();
  append_ports(u, out);
}

template <class Id>
void DexNetwork::append_ports(NodeId u, std::vector<Id>& out) const {
  for (Vertex z : map_.sim(u)) {
    for (Vertex w : cyc_->ports(z)) out.push_back(map_.owner(w));
  }
  if (build_) {
    for (Vertex y : build_->new_sim[u]) {
      for (Vertex w : build_->cyc_new->ports(y))
        out.push_back(owner_future(w));
    }
  }
  if (tear_) {
    for (Vertex x : tear_->old_sim[u]) {
      for (Vertex w : tear_->cyc_old->ports(x)) {
        if (w >= tear_->progress) out.push_back(tear_->phi_old[w]);
      }
    }
  }
}

NodeId DexNetwork::allocate_node() {
  const NodeId u = static_cast<NodeId>(alive_.size());
  alive_.push_back(false);
  map_.ensure_node_capacity(alive_.size());
  if (build_) {
    build_->new_sim.emplace_back();
    build_->new_load.push_back(0);
    build_->claims.emplace_back();
  }
  if (tear_) {
    tear_->old_sim.emplace_back();
    tear_->old_load.push_back(0);
  }
  return u;
}

// ---------------------------------------------------------------------------
// Step orchestration
// ---------------------------------------------------------------------------

void DexNetwork::begin_step(StepOp op) {
  report_ = StepReport{};
  report_.op = op;
  report_.staggered_active = staggered_active();
  meter_.end_step();  // clear any residue from out-of-step activity
}

void DexNetwork::post_step_common(NodeId actor) {
  notify_coordinator(actor);
  if (prm_.mode == RecoveryMode::WorstCase) {
    advance_staggered();
    maybe_trigger_staggered();
  }
  end_step();
}

void DexNetwork::end_step() {
  report_.cost = meter_.end_step();
  report_.n = n_alive_;
  report_.p = map_.p();
  report_.staggered_active = report_.staggered_active || staggered_active();
}

NodeId DexNetwork::insert(NodeId attach_to) {
  begin_step(StepOp::Insert);
  DEX_ASSERT_MSG(alive(attach_to), "attach target must be alive");
  const NodeId u = allocate_node();
  alive_[u] = true;
  ++n_alive_;
  journal_born(u);
  handle_insert_recovery(u, attach_to);
  post_step_common(u);
  return u;
}

void DexNetwork::remove(NodeId victim) {
  begin_step(StepOp::Delete);
  DEX_ASSERT_MSG(alive(victim), "victim must be alive");
  DEX_ASSERT_MSG(n_alive_ >= 3, "network must keep at least 2 nodes");
  const NodeId v = handle_delete_recovery(victim);
  post_step_common(v);
}

// ---------------------------------------------------------------------------
// Type-1 recovery (Algorithms 4.2 / 4.3)
// ---------------------------------------------------------------------------

std::uint64_t DexNetwork::walk_length() const {
  return std::max<std::uint64_t>(
      2, support::scaled_log(prm_.walk_factor,
                             std::max<std::uint64_t>(n_alive_, 2)));
}

NodeId DexNetwork::type1_walk(NodeId start,
                              const std::function<bool(NodeId)>& accept,
                              NodeId exclude) {
  if (accept(start)) return start;
  NodeId cur = start;
  const std::uint64_t len = walk_length();
  std::vector<std::uint64_t> ports, filtered;
  for (std::uint64_t step = 0; step < len; ++step) {
    ports_of(cur, ports);
    filtered.clear();
    for (std::uint64_t t : ports) {
      if (static_cast<NodeId>(t) != exclude) filtered.push_back(t);
    }
    if (filtered.empty()) return kInvalidNode;
    cur = static_cast<NodeId>(filtered[rng_.below(filtered.size())]);
    meter_.add_messages(1);
    meter_.add_rounds(1);
    if (accept(cur)) return cur;
  }
  return kInvalidNode;
}

NodeId DexNetwork::walk_until_found(NodeId start,
                                    const std::function<bool(NodeId)>& accept,
                                    bool insert_side, NodeId exclude) {
  const std::uint64_t epoch_at_entry = cycle_epoch_;
  const bool staggered_at_entry = staggered_active();
  auto state_changed = [&] {
    return cycle_epoch_ != epoch_at_entry ||
           staggered_active() != staggered_at_entry;
  };
  for (std::uint64_t attempt = 0; attempt <= prm_.max_walk_retries;
       ++attempt) {
    const NodeId w = type1_walk(start, accept, exclude);
    if (w != kInvalidNode) return w;
    ++report_.walk_retries;

    const auto thr = static_cast<std::uint64_t>(
        prm_.theta * static_cast<double>(n_alive_));
    if (prm_.mode == RecoveryMode::Amortized) {
      // Algorithm 4.2/4.3 failure path: count |Spare| or |Low| exactly by
      // flooding; rebuild only if the set is genuinely below θn, else the
      // failure was bad luck (prob ≤ 1/n) — retry.
      charge_flood(start);
      if (insert_side && map_.spare_count() < std::max<std::uint64_t>(thr, 1)) {
        simplified_inflate();
        return kInvalidNode;  // epoch changed; caller must re-evaluate
      }
      if (!insert_side && map_.low_count() < std::max<std::uint64_t>(thr, 1) &&
          map_.p() >= 60 && map_.p() > 8 * n_alive_) {
        simplified_deflate();
        return kInvalidNode;
      }
    } else {
      // Worst-case mode: consult the coordinator's counters (O(log n)
      // route). Normally the staggered rebuild has been triggered
      // preemptively at 3θn; in the degenerate small-n regime (3θn < 1)
      // the failure itself is the trigger, so fire it now and let the
      // caller re-dispatch under the new state.
      notify_coordinator(start);
      if (!staggered_active()) {
        maybe_trigger_staggered();
        if (state_changed()) return kInvalidNode;
        // Last resort: the relevant set is literally empty and no rebuild
        // is possible via the staggered path.
        if (insert_side && map_.spare_count() == 0) {
          ++forced_sync_type2_;
          simplified_inflate();
          return kInvalidNode;
        }
        if (!insert_side && map_.low_count() == 0 && map_.p() >= 60 &&
            map_.p() > 8 * n_alive_) {
          ++forced_sync_type2_;
          simplified_deflate();
          return kInvalidNode;
        }
      }
    }
    if (state_changed()) return kInvalidNode;
  }
  DEX_ASSERT_MSG(false, "type-1 walk retries exhausted");
  return kInvalidNode;
}

void DexNetwork::handle_insert_recovery(NodeId u, NodeId attach_to) {
  meter_.add_topology(1);  // bootstrap edge u—attach_to

  // Recovery may change the global state mid-step (a rebuild triggered by a
  // failed walk); re-dispatch on the current state until the newcomer owns
  // a vertex.
  for (bool done = false; !done;) {
    done = dispatch_insert(u, attach_to);
  }

  // Drop the bootstrap edge unless the virtual graph dictates a u—attach_to
  // link anyway (Algorithm 4.2 line 3).
  std::vector<std::uint64_t> ports;
  ports_of(u, ports);
  if (std::find(ports.begin(), ports.end(),
                static_cast<std::uint64_t>(attach_to)) == ports.end())
    meter_.add_topology(1);
}

bool DexNetwork::dispatch_insert(NodeId u, NodeId attach_to) {
  if (build_ && build_->inflating) {
    // §4.4.1: during a staggered inflation, a freshly inflated vertex is
    // assigned to the newcomer. The coordinator directs the request to the
    // active group (O(log n) routing; no walk needed).
    meter_.add_messages(2 * cyc_->distance_to_zero(map_.sim(attach_to).empty()
                                                       ? 0
                                                       : map_.sim(attach_to)[0]));
    meter_.add_rounds(2);
    NodeId host = kInvalidNode;
    Vertex give = 0;
    DEX_ASSERT(build_->progress > 0);
    for (Vertex y = build_->infl->ceil_alpha(build_->progress); y-- > 0;) {
      const NodeId cand = build_->phi_new[y];
      if (cand != kInvalidNode && cand != u && build_->new_load[cand] >= 2) {
        host = cand;
        give = y;
        break;
      }
    }
    DEX_ASSERT_MSG(host != kInvalidNode,
                   "staggered inflation must have spare new vertices");
    // Route from the coordinator to the host (on the current cycle).
    meter_.add_messages(
        cyc_->distance_to_zero(build_->infl->parent(give)) + 2);
    meter_.add_rounds(2);
    transfer_new_vertex(give, u);
    return true;
  }

  if (build_ && !build_->inflating) {
    // Staggered deflation in progress: Spare (w.r.t. the current cycle) is
    // plentiful (Claim 4.3). Prefer handing the newcomer an unprocessed
    // *dominating* vertex so it also owns a future new-cycle vertex.
    const NodeId w = walk_until_found(
        attach_to,
        [&](NodeId c) { return c != u && alive(c) && map_.in_spare(c); },
        /*insert_side=*/true, /*exclude=*/u);
    if (w == kInvalidNode) return false;  // state changed; re-dispatch
    // Pick the vertex to donate. A "future" vertex (unprocessed,
    // dominating, unclaimed) carries a new-cycle vertex with it: donate
    // one only if the donor keeps at least one future of its own.
    auto is_future = [&](Vertex z) {
      return z >= build_->progress && build_->defl->is_dominating(z) &&
             build_->phi_new[build_->defl->image(z)] == kInvalidNode;
    };
    Vertex give = map_.sim(w).back();
    if (spare_new_capacity(w) >= 2) {
      for (Vertex z : map_.sim(w)) {
        if (is_future(z)) {
          give = z;
          break;
        }
      }
    } else {
      for (Vertex z : map_.sim(w)) {
        if (!is_future(z)) {
          give = z;
          break;
        }
      }
    }
    transfer_current_vertex(give, u);
    // If the newcomer's vertex carries no future new-cycle vertex, grab a
    // claim via a contending walk (Algorithm 4.9 line 4).
    bool has_future = !build_->claims[u].empty() || build_->new_load[u] > 0;
    for (Vertex z : map_.sim(u)) {
      if (is_future(z)) has_future = true;
    }
    if (!has_future) {
      const NodeId donor = walk_until_found(
          u,
          [&](NodeId c) {
            return c != u && alive(c) && build_ && !build_->inflating &&
                   spare_new_capacity(c) >= 2;
          },
          /*insert_side=*/true);
      if (donor != kInvalidNode) grant_new_vertex(donor, u);
      // On state change the deflation build is gone and no claim is needed.
    }
    return true;
  }

  // Plain type-1 insertion (Algorithm 4.2).
  const NodeId w = walk_until_found(
      attach_to,
      [&](NodeId c) { return c != u && alive(c) && map_.in_spare(c); },
      /*insert_side=*/true, /*exclude=*/u);
  if (w == kInvalidNode) return false;  // type-2 rebuild/trigger; re-dispatch
  transfer_current_vertex(map_.sim(w).back(), u);
  return true;
}

NodeId DexNetwork::pick_recovery_neighbor(NodeId victim) const {
  std::vector<std::uint64_t> ports;
  ports_of(victim, ports);
  for (std::uint64_t t : ports) {
    const NodeId c = static_cast<NodeId>(t);
    if (c != victim && alive(c)) return c;
  }
  DEX_ASSERT_MSG(false, "victim has no alive neighbor");
  return kInvalidNode;
}

NodeId DexNetwork::handle_delete_recovery(NodeId victim) {
  const NodeId v = pick_recovery_neighbor(victim);

  // Neighbor v takes over everything the victim simulated (Alg. 4.3 line 1).
  const std::vector<Vertex> absorbed_cur = map_.sim(victim);
  std::vector<Vertex> absorbed_new;
  std::vector<Vertex> absorbed_old;
  if (build_) absorbed_new = build_->new_sim[victim];
  if (tear_) absorbed_old = tear_->old_sim[victim];

  alive_[victim] = false;
  --n_alive_;
  journal_died(victim);

  for (Vertex z : absorbed_cur) {
    journal_transfer(z, v);
    meter_.add_topology(map_.transfer(z, v));
  }
  for (Vertex y : absorbed_new) transfer_new_vertex(y, v);
  for (Vertex x : absorbed_old) transfer_old_residual(x, v);
  meter_.add_messages(2 * (absorbed_cur.size() + absorbed_new.size() +
                           absorbed_old.size()));
  meter_.add_rounds(2);

  // Open claims of the victim revert to their default generators.
  if (build_) {
    for (Vertex y : build_->claims[victim]) build_->phi_new[y] = kInvalidNode;
    build_->claims[victim].clear();
  }

  // Redistribute the absorbed current-cycle vertices via random walks
  // (Alg. 4.3 lines 2–5). Target set: Low normally; during a staggered
  // deflation Low is scarce by construction, so the bound-preserving target
  // is any node below the 4ζ cap (see DESIGN.md). The predicate reads the
  // build state dynamically — a failed walk may trigger the rebuild
  // mid-step.
  const auto accept_delete = [&](NodeId c) {
    if (!alive(c)) return false;
    const bool deflating_build = build_ && !build_->inflating;
    return deflating_build ? map_.load(c) < prm_.max_load() : map_.in_low(c);
  };
  const std::uint64_t epoch = cycle_epoch_;
  for (Vertex z : absorbed_cur) {
    while (cycle_epoch_ == epoch) {
      const NodeId w = walk_until_found(v, accept_delete,
                                        /*insert_side=*/false);
      if (w == kInvalidNode) continue;  // state changed; re-evaluate
      transfer_current_vertex(z, w);
      break;
    }
    if (cycle_epoch_ != epoch) break;  // a rebuild re-homed everything
  }

  // Build-phase extras absorbed from the victim are shed the same way.
  if (build_ && cycle_epoch_ == epoch) {
    for (Vertex y : absorbed_new) {
      if (build_->phi_new[y] != v) continue;  // already elsewhere
      const NodeId w = walk_until_found(
          v,
          [&](NodeId c) {
            return alive(c) && c != v &&
                   build_->new_load[c] < prm_.max_load();
          },
          /*insert_side=*/false);
      if (w == kInvalidNode) break;
      transfer_new_vertex(y, w);
    }
  }
  if (tear_ && cycle_epoch_ == epoch) {
    while (tear_->old_load[v] > prm_.max_load()) {
      const NodeId w = walk_until_found(
          v,
          [&](NodeId c) {
            return alive(c) && c != v &&
                   tear_->old_load[c] < prm_.max_load();
          },
          /*insert_side=*/false);
      if (w == kInvalidNode) break;
      transfer_old_residual(tear_->old_sim[v].back(), w);
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Simplified type-2 recovery (Algorithms 4.5 / 4.6) — amortized mode and
// the worst-case safety valve.
// ---------------------------------------------------------------------------

void DexNetwork::simplified_inflate() {
  DEX_ASSERT_MSG(!staggered_active(),
                 "synchronous rebuild cannot overlap a staggered one");
  const std::uint64_t p_old = map_.p();
  const std::uint64_t p_new = support::inflation_prime(p_old);
  const InflationMap im(p_old, p_new);
  PCycle nc(p_new);

  charge_flood(coordinator());  // the inflation request reaches every node

  VirtualMapping nm(p_new, alive_.size(), prm_.low_threshold());
  for (Vertex x = 0; x < p_old; ++x) {
    const NodeId o = map_.owner(x);
    const std::uint64_t cx = im.c(x);
    for (std::uint64_t j = 0; j <= cx; ++j) nm.assign(im.child(x, j), o);
  }
  // Edge rewiring: all old edges die, all new edges are born; inverse edges
  // are located by permutation routing on the old expander (Cor. 3).
  meter_.add_topology((3 * (p_new + p_old)) / 2);
  meter_.add_messages(2 * p_new);
  charge_permutation_routing(p_old);

  rebalance_inflated(nm, nc);

  map_ = std::move(nm);
  cyc_ = std::make_unique<PCycle>(std::move(nc));
  journal_full();  // wholesale remap: every row changed
  ++cycle_epoch_;
  ++inflations_;
  report_.type2_event = true;
  meter_.add_messages(1);  // coordinator state handover to owner of 0
  refresh_coordinator_counters();
}

void DexNetwork::simplified_deflate() {
  DEX_ASSERT_MSG(!staggered_active(),
                 "synchronous rebuild cannot overlap a staggered one");
  // One stage shrinks p by 4–8x. Under the paper's prompt trigger that is
  // enough, but racing deletions (the event engine's overlapping batches)
  // can crash n while p stands still, leaving p/n far above the 2ζ low
  // threshold after a single stage — and then every node is "full" and the
  // rebalance walks have nowhere to land. So: iterate stages until the
  // p <= 8n invariant is restored (or p can no longer shrink), and only
  // rebalance the final mapping — intermediate ones are torn down anyway.
  for (;;) {
    const std::uint64_t p_old = map_.p();
    DEX_ASSERT_MSG(p_old >= 60, "network too small to deflate");
    // The new cycle must still cover every node surjectively: p/8 > n. The
    // paper's trigger (|Low| < θn ⇒ total load ≥ ~2ζ(1−θ)n ⇒ p ≥ 16n)
    // guarantees this; enforce it against misuse.
    DEX_ASSERT_MSG(p_old > 8 * n_alive_,
                   "deflation requires p > 8n (trigger precondition)");
    const std::uint64_t p_new = support::deflation_prime(p_old);
    const DeflationMap dm(p_old, p_new);
    PCycle nc(p_new);

    charge_flood(coordinator());

    VirtualMapping nm(p_new, alive_.size(), prm_.low_threshold());
    for (Vertex y = 0; y < p_new; ++y) {
      nm.assign(y, map_.owner(dm.dominating(y)));
    }

    meter_.add_topology((3 * (p_new + p_old)) / 2);
    meter_.add_messages(2 * p_new);
    charge_permutation_routing(p_old);

    resolve_contenders_deflated(nm, nc, dm);
    const bool last = p_new <= 8 * n_alive_ || p_new < 60;
    if (last) rebalance_inflated(nm, nc);  // shed any residual loads > 4ζ

    map_ = std::move(nm);
    cyc_ = std::make_unique<PCycle>(std::move(nc));
    journal_full();  // wholesale remap: every row changed
    ++cycle_epoch_;
    ++deflations_;
    report_.type2_event = true;
    meter_.add_messages(1);
    refresh_coordinator_counters();
    if (last) break;
  }
}

void DexNetwork::rebalance_inflated(VirtualMapping& nm, const PCycle& nc) {
  const std::uint64_t p_new = nm.p();
  std::vector<bool> full(p_new, false);
  auto mark_full = [&](NodeId w) {
    for (Vertex z : nm.sim(w)) full[z] = true;
  };
  std::vector<NodeId> overloaded;
  for (NodeId w = 0; w < alive_.size(); ++w) {
    if (!alive_[w]) continue;
    if (nm.load(w) > prm_.low_threshold()) mark_full(w);  // load > 2ζ
    if (nm.load(w) > prm_.max_load()) overloaded.push_back(w);
  }
  if (overloaded.empty()) return;
  // p vertices fit under the 4ζ cap only on at least p / 4ζ nodes; below
  // that no walk can converge, so fail here instead of at the epoch limit.
  DEX_ASSERT_MSG(p_new <= prm_.max_load() * n(),
                 "rebalance_inflated: p exceeds 4*zeta*n, the population "
                 "fell below the mapping's feasible floor");

  const std::uint64_t steps = std::max<std::uint64_t>(
      2, support::scaled_log(prm_.walk_factor, p_new));
  const std::uint64_t round_limit =
      steps * std::max<std::uint64_t>(4, support::floor_log2(p_new));

  sim::PortsFn vports = [&nc](std::uint64_t loc,
                              std::vector<std::uint64_t>& out) {
    out.clear();
    for (Vertex w : nc.ports(loc)) out.push_back(w);
  };

  for (std::uint64_t epoch = 0; epoch < kRebalanceEpochLimit; ++epoch) {
    // Degenerate-regime fallback: when every alive node already sits above
    // the 2ζ comfort threshold (deletions can outrun deflation, and below
    // p = 60 deflation cannot shrink p further), the full[] filter leaves
    // the walks no landing spot and they would starve to the epoch limit.
    // The binding invariant is the 4ζ cap, not the 2ζ margin — so in that
    // state accept any receiver that still has headroom under 4ζ.
    bool any_low = false;
    for (NodeId w = 0; w < alive_.size() && !any_low; ++w) {
      any_low = alive_[w] && nm.load(w) <= prm_.low_threshold();
    }
    const bool relaxed = !any_low;
    std::vector<sim::Token> tokens;
    for (NodeId w : overloaded) {
      const std::uint64_t excess = nm.load(w) - prm_.max_load();
      for (std::uint64_t i = 0; i < excess; ++i) {
        sim::Token t;
        t.location = nm.sim(w)[rng_.below(nm.sim(w).size())];
        t.steps_remaining = steps;
        t.tag = w;
        tokens.push_back(t);
      }
    }
    if (tokens.empty()) return;

    auto res = sim::run_walks(std::move(tokens), vports, rng_, round_limit);
    meter_.add_rounds(res.rounds);
    meter_.add_messages(res.messages);

    std::unordered_map<std::uint64_t, std::uint32_t> landing_count;
    for (const auto& t : res.tokens) {
      if (t.finished) ++landing_count[t.location];
    }
    for (const auto& t : res.tokens) {
      if (!t.finished || landing_count[t.location] != 1) continue;
      const NodeId w = nm.owner(t.location);
      if (relaxed ? nm.load(w) >= prm_.max_load() : full[t.location]) {
        continue;
      }
      const NodeId giver = t.tag;
      if (nm.load(giver) <= prm_.max_load()) continue;  // already resolved
      meter_.add_topology(nm.transfer(nm.sim(giver).back(), w));
      meter_.add_messages(2);
      if (nm.load(w) > prm_.low_threshold()) mark_full(w);
    }
    std::vector<NodeId> still;
    for (NodeId w : overloaded) {
      if (nm.load(w) > prm_.max_load()) still.push_back(w);
    }
    overloaded.swap(still);
    if (overloaded.empty()) return;
  }
  DEX_ASSERT_MSG(false, "rebalance_inflated failed to converge");
}

void DexNetwork::resolve_contenders_deflated(VirtualMapping& nm,
                                             const PCycle& nc,
                                             const DeflationMap& dm) {
  const std::uint64_t p_new = nm.p();
  std::vector<bool> taken(p_new, false);
  std::vector<NodeId> contenders;
  for (NodeId u = 0; u < alive_.size(); ++u) {
    if (!alive_[u]) continue;
    if (nm.load(u) >= 1) {
      taken[nm.sim(u)[0]] = true;  // reserve one vertex for u itself
    } else {
      contenders.push_back(u);
    }
  }
  if (contenders.empty()) return;

  const std::uint64_t steps = std::max<std::uint64_t>(
      2, support::scaled_log(prm_.walk_factor, p_new));
  const std::uint64_t round_limit =
      steps * std::max<std::uint64_t>(4, support::floor_log2(p_new));

  sim::PortsFn vports = [&nc](std::uint64_t loc,
                              std::vector<std::uint64_t>& out) {
    out.clear();
    for (Vertex w : nc.ports(loc)) out.push_back(w);
  };

  for (std::uint64_t epoch = 0; epoch < kRebalanceEpochLimit; ++epoch) {
    std::vector<sim::Token> tokens;
    for (NodeId u : contenders) {
      sim::Token t;
      // Walk starts at the new-cycle image of one of u's old vertices (the
      // walk is simulated on the actual network; see §4.2.2 Phase 2).
      DEX_ASSERT(!map_.sim(u).empty());
      t.location = dm.image(map_.sim(u)[0]);
      t.steps_remaining = steps;
      t.tag = u;
      tokens.push_back(t);
    }
    auto res = sim::run_walks(std::move(tokens), vports, rng_, round_limit);
    meter_.add_rounds(res.rounds);
    meter_.add_messages(res.messages);

    std::unordered_map<std::uint64_t, std::uint32_t> landing_count;
    for (const auto& t : res.tokens) {
      if (t.finished) ++landing_count[t.location];
    }
    std::vector<NodeId> still;
    for (const auto& t : res.tokens) {
      const NodeId u = t.tag;
      if (t.finished && landing_count[t.location] == 1 &&
          !taken[t.location] && nm.load(nm.owner(t.location)) >= 2) {
        meter_.add_topology(nm.transfer(t.location, u));
        meter_.add_messages(2);
        taken[t.location] = true;
      } else {
        still.push_back(u);
      }
    }
    contenders.swap(still);
    if (contenders.empty()) return;
  }
  DEX_ASSERT_MSG(false, "resolve_contenders_deflated failed to converge");
}

// ---------------------------------------------------------------------------
// Cost-model helpers
// ---------------------------------------------------------------------------

void DexNetwork::charge_flood(NodeId source) {
  const graph::Multigraph g = snapshot();
  meter_.add(sim::flood_cost(g, source, alive_));
}

void DexNetwork::charge_permutation_routing(std::uint64_t q) {
  // Analytic round bound of Cor. 3 (validated empirically by bench_walks):
  // O(log q · (log log q)² / log log log q); we charge the dominant term.
  const double lg = std::log2(static_cast<double>(std::max<std::uint64_t>(q, 4)));
  const double lglg = std::log2(std::max(lg, 2.0));
  meter_.add_rounds(static_cast<std::uint64_t>(std::ceil(lg * lglg * lglg)));
  // One packet per vertex; mean path length sampled on the current cycle.
  meter_.add_messages(q * sampled_mean_distance(*cyc_));
}

std::uint32_t DexNetwork::sampled_mean_distance(const PCycle& c) {
  const unsigned kSamples = 16;
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kSamples; ++i) {
    const Vertex a = rng_.below(c.p());
    const Vertex b = rng_.below(c.p());
    total += c.distance(a, b);
  }
  return static_cast<std::uint32_t>(total / kSamples + 1);
}

// ---------------------------------------------------------------------------
// Batch-extension hooks (§5)
// ---------------------------------------------------------------------------

bool DexNetwork::try_assign_spare_vertex(NodeId newcomer, NodeId host) {
  if (!alive(host) || host == newcomer || !map_.in_spare(host)) return false;
  transfer_current_vertex(map_.sim(host).back(), newcomer);
  return true;
}

void DexNetwork::absorb_and_mark_dead(NodeId victim, NodeId& absorber,
                                      std::vector<Vertex>& absorbed) {
  absorber = pick_recovery_neighbor(victim);
  absorbed = map_.sim(victim);
  alive_[victim] = false;
  --n_alive_;
  journal_died(victim);
  for (Vertex z : absorbed) {
    journal_transfer(z, absorber);
    meter_.add_topology(map_.transfer(z, absorber));
  }
  meter_.add_messages(2 * absorbed.size());
}

bool DexNetwork::redistribution_target_ok(NodeId w) const {
  return alive(w) && map_.in_low(w);
}

// ---------------------------------------------------------------------------
// Invariant audit
// ---------------------------------------------------------------------------

void DexNetwork::check_invariants() const {
  DEX_ASSERT(map_.audit());
  std::uint64_t alive_count = 0;
  for (NodeId u = 0; u < alive_.size(); ++u) {
    if (alive_[u]) {
      ++alive_count;
      DEX_ASSERT_MSG(total_load(u) >= 1, "alive node simulates nothing");
      DEX_ASSERT_MSG(map_.load(u) <= prm_.max_load(),
                     "current-cycle load exceeds 4*zeta");
      if (build_)
        DEX_ASSERT_MSG(build_->new_load[u] <= prm_.max_load(),
                       "build load exceeds 4*zeta");
      if (tear_)
        DEX_ASSERT_MSG(tear_->old_load[u] <= 2 * prm_.max_load(),
                       "teardown residual load exceeds 8*zeta");
    } else {
      DEX_ASSERT(map_.load(u) == 0);
      if (build_)
        DEX_ASSERT(build_->new_load[u] == 0 && build_->claims[u].empty());
      if (tear_) DEX_ASSERT(tear_->old_load[u] == 0);
    }
  }
  DEX_ASSERT(alive_count == n_alive_);
  for (Vertex z = 0; z < map_.p(); ++z)
    DEX_ASSERT_MSG(alive_[map_.owner(z)], "vertex owned by dead node");
  DEX_ASSERT(coord_.n == n_alive_);
  DEX_ASSERT(coord_.spare == map_.spare_count());
  DEX_ASSERT(coord_.low == map_.low_count());
  if (build_) {
    // Every pre-assigned unprocessed vertex sits on its claimant's list.
    std::uint64_t open_claims = 0;
    for (NodeId u = 0; u < alive_.size(); ++u) {
      for (Vertex y : build_->claims[u])
        DEX_ASSERT(!build_processed(y) && build_->phi_new[y] == u);
      open_claims += build_->claims[u].size();
    }
    for (Vertex y = 0; y < build_->p_new; ++y) {
      if (build_processed(y)) {
        DEX_ASSERT_MSG(build_->phi_new[y] != kInvalidNode &&
                           alive_[build_->phi_new[y]],
                       "processed new vertex without alive owner");
      } else if (build_->phi_new[y] != kInvalidNode) {
        --open_claims;
      }
    }
    DEX_ASSERT(open_claims == 0);
  }
  if (tear_) {
    for (Vertex x = tear_->progress; x < tear_->p_old; ++x) {
      DEX_ASSERT_MSG(alive_[tear_->phi_old[x]],
                     "residual old vertex owned by dead node");
    }
  }
}

}  // namespace dex
