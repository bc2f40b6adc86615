#pragma once

/// \file bench_common.h
/// Umbrella include for the experiment binaries: the unified overlay
/// interface, the scenario engine and the adversary strategies. Every
/// backend is driven through sim::ScenarioRunner (or an AdversaryView for
/// ad-hoc stepping), so the per-backend view_of()/apply() overloads this
/// header used to carry are gone.

#include "adversary/adversary.h"
#include "sim/overlay.h"
#include "sim/scenario.h"

namespace dex::bench {

/// Mean routing stretch of a traffic trial: realized hops over BFS-optimal
/// hops across the delivered ops (1 when nothing was delivered). Shared by
/// the traffic benches so the ratio can never drift between them.
inline double stretch(const sim::ScenarioResult& r) {
  return r.total_opt_hops == 0
             ? 1.0
             : static_cast<double>(r.total_op_hops) /
                   static_cast<double>(r.total_opt_hops);
}

/// Realized hops per op (0 with no traffic).
inline double hops_per_op(const sim::ScenarioResult& r) {
  return r.total_ops == 0 ? 0.0
                          : static_cast<double>(r.total_op_hops) /
                                static_cast<double>(r.total_ops);
}

}  // namespace dex::bench
