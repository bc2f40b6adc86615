#pragma once

/// \file batch.h
/// Multiple insertions/deletions per step (§5 of the paper, Corollary 2).
///
/// The adversary may insert or delete up to εn nodes in one step, subject to
/// the paper's conditions: at most O(1) inserted nodes attach to any single
/// existing node; deletions leave the remainder connected and every deleted
/// node keeps at least one surviving neighbor. Recovery runs all
/// redistribution random walks *in parallel* (token engine with CONGEST
/// congestion) and falls back to simplifiedInfl/simplifiedDefl when the
/// Spare/Low thresholds cannot be met — O(n log² n) messages and O(log³ n)
/// rounds per batch (Cor. 2).
///
/// Since the batch-first API redesign this path is no longer a side door:
/// sim::DexOverlay::apply(const sim::ChurnBatch&) routes every multi-event
/// batch through apply_batch whenever batch_feasible() holds (amortized
/// mode, no staggered rebuild in flight, §5 preconditions met), so every
/// scenario, bench and the CLI reach it through the unified
/// sim::HealingOverlay interface.

#include <cstdint>
#include <vector>

#include "dex/network.h"
#include "sim/churn.h"
#include "sim/meters.h"

namespace dex {

struct BatchRequest {
  /// Number of nodes to insert; attachment points are chosen by the caller
  /// via `attach_to` (size must equal `insert_count`; entries may repeat up
  /// to `max_attach_per_node` times).
  std::vector<NodeId> attach_to;
  /// Nodes to delete (validated: alive, leave the graph connected).
  std::vector<NodeId> deletions;
};

struct BatchResult {
  std::vector<NodeId> inserted;  ///< ids of the new nodes, in attach_to order
  sim::StepCost cost;
  bool used_type2 = false;
  std::uint64_t walk_epochs = 0;
};

/// Applies one batch step. Aborts (DEX_ASSERT) if the request violates the
/// model's preconditions. `prevalidated = true` skips the precondition
/// re-check (connectivity BFS) — pass it only when batch_feasible() was
/// just consulted on the unchanged network, as DexOverlay::apply does.
/// `live` optionally points at a caller-maintained current CSR of the live
/// topology (see HealingOverlay::set_live_view_provider); the connectivity
/// precondition (graph::survivors_connected) then runs on it instead of on
/// a CSR built locally from live_ports.
BatchResult apply_batch(DexNetwork& net, const BatchRequest& req,
                        bool prevalidated = false,
                        const graph::CsrView* live = nullptr);

/// Non-fatal §5 precondition check: true iff `req` can be handed to
/// apply_batch without tripping its asserts — network in amortized mode
/// with no staggered rebuild in flight, victims distinct/alive, every
/// victim keeps a surviving neighbor, survivors stay connected, attach
/// points alive and surviving, and at most sim::kMaxAttachPerNode
/// newcomers per attach point (the paper's O(1) attach multiplicity).
/// sim::DexOverlay::apply consults this to decide parallel vs. sequential.
/// `live`: as in apply_batch — a current CSR spares the connectivity check
/// its local build (no Multigraph materialization either way).
[[nodiscard]] bool batch_feasible(const DexNetwork& net,
                                  const BatchRequest& req,
                                  const graph::CsrView* live = nullptr);

}  // namespace dex
