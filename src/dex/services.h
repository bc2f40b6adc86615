#pragma once

/// \file services.h
/// The overlay service the paper's introduction motivates an expander for:
/// "nodes can quickly sample a random node in the network (enabling many
/// randomized protocols)". sample_node is a thin, metered utility over a
/// live DexNetwork: (almost-)uniform node sampling by a Θ(log n) random walk
/// on the real multigraph, de-biased by load (a walk's stationary
/// distribution is degree-proportional; degree = 3·load, so accepting a
/// landing node with probability 1/load restores near-uniformity).
///
/// The intro's other service, "effective communication channels with low
/// latency", is sim::DexOverlay::route (the §4.4.4 p-cycle route the
/// traffic layer serves through); flood cost is sim::flood_cost.

#include "dex/network.h"
#include "sim/meters.h"

namespace dex {

struct SampleResult {
  NodeId node = kInvalidNode;
  sim::StepCost cost;       ///< walk hops (messages == rounds)
  std::uint64_t attempts = 0;  ///< rejection-sampling restarts
};

/// Samples a node near-uniformly starting from `origin`. The walk length is
/// ceil(walk_factor · ln n); rejection de-biases the degree-proportional
/// landing distribution. Deterministic given the network's RNG state.
[[nodiscard]] SampleResult sample_node(DexNetwork& net, NodeId origin);

}  // namespace dex
