#pragma once

/// \file token_engine.h
/// Parallel random walks under CONGEST congestion.
///
/// The paper repeatedly runs many random-walk tokens simultaneously
/// (Phase 2 of simplifiedInfl/simplifiedDefl; the batch extension of §5) and
/// relies on Lemma 11: with at most one token per edge per direction per
/// round, n tokens of length Θ(log n) all finish within O(log² n) rounds
/// w.h.p. This engine implements exactly that model: per round, every
/// unfinished token picks a uniformly random port of its current location;
/// if the chosen directed edge was already claimed this round, the token
/// waits (and re-picks next round). Each successful move costs one message.
///
/// The engine is generic over the graph: locations are opaque 64-bit ids and
/// the caller supplies the port set. This lets the same engine drive walks
/// on the real multigraph (type-1 recovery variants) and walks on the
/// *virtual* p-cycle simulated on the real network (type-2 rebalancing),
/// where the congestion key is the directed virtual edge (virtual edges map
/// 1:1 to real links).

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/meters.h"
#include "support/prng.h"

namespace dex::sim {

struct Token {
  std::uint64_t location = 0;       ///< current location id
  std::uint64_t steps_remaining = 0;
  std::uint32_t tag = 0;            ///< caller-defined identity
  bool finished = false;
};

struct EngineResult {
  std::vector<Token> tokens;   ///< final states, same order as input
  std::uint64_t rounds = 0;    ///< synchronous rounds elapsed
  std::uint64_t messages = 0;  ///< total token moves
  bool all_finished = false;
};

/// Enumerates the ports (neighbor location ids) of a location into `out`.
/// `out` is reused across calls to avoid allocation.
using PortsFn =
    std::function<void(std::uint64_t loc, std::vector<std::uint64_t>& out)>;

/// Optional early-accept predicate: consulted at most once per successful
/// token move (after steps_remaining is decremented); returning true
/// settles the token at that location. A move that exhausts the step
/// budget finishes the token WITHOUT consulting accept — a stateful
/// predicate (e.g. counting tentative settlements per location to avoid
/// stampedes) therefore undercounts budget-exhausted tokens, and callers
/// must re-validate settled tokens against live state (as the §5 batch
/// path does). This is the parallel counterpart of the single-event
/// type-1 walk, which also stops at the *first* node satisfying its
/// acceptance test — the batch path uses it so the sequential-vs-parallel
/// rounds comparison holds walk semantics fixed.
using AcceptFn = std::function<bool(std::uint64_t loc)>;

/// Runs all tokens to completion (or until round_limit). Tokens that still
/// have steps left at the limit are reported unfinished at their current
/// location. With an accept predicate, tokens may also finish early at the
/// first accepting location they step onto (the start location is never
/// tested — a token must move at least once, like type1_walk).
///
/// The round is serial by construction: one shared generator draws every
/// move and one congestion set arbitrates every edge, in a fresh random
/// service order each round, so spec + seed reproduce the byte-exact walk.
[[nodiscard]] EngineResult run_walks(std::vector<Token> tokens,
                                     const PortsFn& ports,
                                     support::Rng& rng,
                                     std::uint64_t round_limit,
                                     const AcceptFn& accept = {});

}  // namespace dex::sim
