#include "dex/batch.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "graph/csr.h"
#include "sim/token_engine.h"
#include "support/mathutil.h"

namespace dex {

namespace {

/// The one §5 precondition checker (duplicates, population floor, surviving
/// neighbors, attach survival + multiplicity cap, remainder connectivity).
/// Returns nullptr when `req` is valid, else a description of the first
/// violation — batch_feasible and apply_batch's assert path both consume
/// this, so the fatal and non-fatal checks can never drift apart.
const char* precondition_violation(const DexNetwork& net,
                                   const BatchRequest& req,
                                   const graph::CsrView* live) {
  std::unordered_set<NodeId> dying(req.deletions.begin(),
                                   req.deletions.end());
  if (dying.size() != req.deletions.size()) return "duplicate victims";
  if (dying.size() + 2 > net.n()) return "batch would empty the network";
  std::vector<std::uint64_t> ports;
  for (NodeId v : req.deletions) {
    if (!net.alive(v)) return "victim not alive";
    net.ports_of(v, ports);
    bool has_survivor = false;
    for (std::uint64_t t : ports) {
      const NodeId c = static_cast<NodeId>(t);
      if (c != v && !dying.contains(c)) {
        has_survivor = true;
        break;
      }
    }
    if (!has_survivor) return "victim would have no surviving neighbor";
  }
  std::unordered_map<NodeId, std::size_t> mult;
  for (NodeId a : req.attach_to) {
    if (!net.alive(a) || dying.contains(a))
      return "attach target must survive the batch";
    if (++mult[a] > sim::kMaxAttachPerNode)
      return "attach multiplicity exceeds the O(1) cap";
  }
  if (!req.deletions.empty()) {
    // Without a lent view, build one from live_ports.
    graph::CsrView local;
    if (live == nullptr) {
      local.build_from_ports(net.alive_mask(), [&net](NodeId u, auto& out) {
        (void)net.live_ports(u, out);
      });
      live = &local;
    }
    if (!graph::survivors_connected(*live, req.deletions))
      return "deletions would disconnect the network";
  }
  return nullptr;
}

}  // namespace

bool batch_feasible(const DexNetwork& net, const BatchRequest& req,
                    const graph::CsrView* live) {
  if (net.params().mode != RecoveryMode::Amortized ||
      net.staggered_active()) {
    return false;
  }
  return precondition_violation(net, req, live) == nullptr;
}

BatchResult apply_batch(DexNetwork& net, const BatchRequest& req,
                        bool prevalidated, const graph::CsrView* live) {
  BatchResult res;
  auto& rng = net.rng();
  auto& meter = net.meter_mut();

  DEX_ASSERT_MSG(!net.staggered_active(),
                 "batch steps use the simplified (amortized) rebuilds; run "
                 "the network in RecoveryMode::Amortized");
  if (!prevalidated) {
    const char* violation = precondition_violation(net, req, live);
    DEX_ASSERT_MSG(violation == nullptr, violation);
  }

  const std::uint64_t walk_len = std::max<std::uint64_t>(
      2, support::scaled_log(net.params().walk_factor,
                             std::max<std::uint64_t>(net.n(), 2)));
  const std::uint64_t round_limit =
      walk_len * std::max<std::uint64_t>(
                     4, support::floor_log2(std::max<std::uint64_t>(
                            net.n(), 4)));

  sim::PortsFn ports_fn = [&net](std::uint64_t loc,
                                 std::vector<std::uint64_t>& out) {
    net.ports_of(static_cast<NodeId>(loc), out);
  };

  // --- deletions: absorb, then redistribute all orphaned vertices with
  // parallel walks. Absorbers may themselves die later in the batch (their
  // vertices cascade to their own absorbers), so walks start at each
  // vertex's *current* owner, looked up per epoch. ---
  std::vector<Vertex> orphans;
  for (NodeId v : req.deletions) {
    NodeId absorber = kInvalidNode;
    std::vector<Vertex> absorbed;
    net.absorb_and_mark_dead(v, absorber, absorbed);
    for (Vertex z : absorbed) orphans.push_back(z);
  }

  // Deflate if Low collapsed below θn (Fact 2(b) at batch scale).
  {
    const auto thr = static_cast<std::uint64_t>(
        net.params().theta * static_cast<double>(net.n()));
    if (!req.deletions.empty() &&
        net.mapping().low_count() < std::max<std::uint64_t>(thr, 1) &&
        net.p() >= 60) {
      net.force_simplified_deflate();
      res.used_type2 = true;
      orphans.clear();  // the rebuild re-homed every vertex
    }
  }

  for (std::uint64_t epoch = 0; !orphans.empty() && epoch < 200; ++epoch) {
    ++res.walk_epochs;
    // Walk epochs can drain Low below the threshold mid-batch; re-check the
    // deflation condition each round (Fact 2(b) at batch scale).
    {
      const auto thr = static_cast<std::uint64_t>(
          net.params().theta * static_cast<double>(net.n()));
      if (net.mapping().low_count() < std::max<std::uint64_t>(thr, 1) &&
          net.p() >= 60 && net.p() > 8 * net.n()) {
        net.force_simplified_deflate();
        res.used_type2 = true;
        orphans.clear();  // the rebuild re-homed every vertex
        break;
      }
    }
    // After a few stalled epochs, widen the target set from Low (≤2ζ) to
    // anything under the 4ζ cap — preserves the balance invariant and
    // guarantees progress when Low is scarce but no deflation is legal.
    const bool relaxed = epoch >= 8;
    std::vector<sim::Token> tokens;
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      sim::Token t;
      t.location = net.mapping().owner(orphans[i]);
      t.steps_remaining = walk_len;
      t.tag = static_cast<std::uint32_t>(i);
      tokens.push_back(t);
    }
    // Early accept, like the single-event type-1 walk: a token settles at
    // the first valid redistribution target it steps onto. The pending map
    // projects this epoch's tentative settlements against the 4ζ cap so the
    // parallel tokens don't stampede one Low node (the post-walk transfer
    // loop re-validates against live state either way).
    std::unordered_map<NodeId, std::uint64_t> pending;
    const std::uint64_t cap = net.params().max_load();
    sim::AcceptFn accept_target = [&](std::uint64_t loc) {
      const NodeId w = static_cast<NodeId>(loc);
      const bool ok =
          net.redistribution_target_ok(w) ||
          (relaxed && net.alive(w) && net.mapping().load(w) < cap);
      if (!ok) return false;
      if (net.mapping().load(w) + pending[w] >= cap) return false;
      ++pending[w];
      return true;
    };
    auto walk = sim::run_walks(std::move(tokens), ports_fn, rng, round_limit,
                               accept_target, net.walk_jobs());
    meter.add_rounds(walk.rounds);
    meter.add_messages(walk.messages);
    std::vector<Vertex> remaining;
    for (const auto& t : walk.tokens) {
      const Vertex z = orphans[t.tag];
      const NodeId w = static_cast<NodeId>(t.location);
      const bool ok =
          net.redistribution_target_ok(w) ||
          (relaxed && net.alive(w) &&
           net.mapping().load(w) < net.params().max_load());
      if (t.finished && ok) {
        net.transfer_current_vertex(z, w);
      } else {
        remaining.push_back(z);
      }
    }
    orphans.swap(remaining);
  }
  DEX_ASSERT_MSG(orphans.empty(), "batch redistribution did not converge");

  // --- insertions: inflate first if Spare cannot cover the batch ---
  if (!req.attach_to.empty() &&
      net.mapping().spare_count() < req.attach_to.size()) {
    net.force_simplified_inflate();
    res.used_type2 = true;
  }

  struct Pending {
    NodeId node;
    NodeId attach;
    std::uint32_t orig;  ///< index into req.attach_to (result ordering)
  };
  std::vector<Pending> joiners;
  // Tokens settle in an arbitrary order across epochs; write results by
  // original index so BatchResult::inserted matches attach_to order.
  res.inserted.assign(req.attach_to.size(), kInvalidNode);
  for (std::uint32_t i = 0; i < req.attach_to.size(); ++i) {
    const NodeId u = net.allocate_node();
    // allocate_node leaves the node dead; activate it.
    // (Insertion bookkeeping is done through the public hook below.)
    joiners.push_back({u, req.attach_to[i], i});
  }
  // Activate newcomers.
  for (const auto& pnd : joiners) net.activate_node(pnd.node);

  for (std::uint64_t epoch = 0; !joiners.empty() && epoch < 200; ++epoch) {
    ++res.walk_epochs;
    std::vector<sim::Token> tokens;
    for (std::size_t i = 0; i < joiners.size(); ++i) {
      sim::Token t;
      t.location = joiners[i].attach;
      t.steps_remaining = walk_len;
      t.tag = static_cast<std::uint32_t>(i);
      tokens.push_back(t);
    }
    // Early accept at Spare hosts (one tentative donation per host and
    // epoch — try_assign_spare_vertex re-validates on live state below).
    std::unordered_map<NodeId, std::uint64_t> claimed;
    sim::AcceptFn accept_host = [&](std::uint64_t loc) {
      const NodeId w = static_cast<NodeId>(loc);
      if (!net.alive(w) || !net.mapping().in_spare(w)) return false;
      if (claimed[w] > 0) return false;
      ++claimed[w];
      return true;
    };
    auto walk = sim::run_walks(std::move(tokens), ports_fn, rng, round_limit,
                               accept_host, net.walk_jobs());
    meter.add_rounds(walk.rounds);
    meter.add_messages(walk.messages);
    std::vector<Pending> remaining;
    for (const auto& t : walk.tokens) {
      const Pending pnd = joiners[t.tag];
      const NodeId w = static_cast<NodeId>(t.location);
      if (!t.finished || !net.try_assign_spare_vertex(pnd.node, w)) {
        remaining.push_back(pnd);
      } else {
        res.inserted[pnd.orig] = pnd.node;
      }
    }
    joiners.swap(remaining);
    if (!joiners.empty() && net.mapping().spare_count() < joiners.size()) {
      net.force_simplified_inflate();
      res.used_type2 = true;
    }
  }
  DEX_ASSERT_MSG(joiners.empty(), "batch insertions did not converge");

  res.cost = net.finish_batch_step();
  return res;
}

}  // namespace dex
