#pragma once

/// \file event.h
/// Declarative knobs for the event-driven simulation core (sim/event/):
/// the latency model, message loss rate, straggler injection and batch
/// injection period that turn the lockstep synchronous rounds the paper
/// assumes into timestamped message deliveries. Everything here is
/// byte-determining — spec + trial seed reproduce the exact delivery
/// schedule — and the defaults (latency fixed:0, loss 0, period 1) are the
/// synchronous rounds themselves.
///
/// This header sits below sim/scenario.h (ScenarioSpec embeds EventSpec) and
/// deliberately knows nothing about overlays or the runner: it is the
/// vocabulary the CLI, the ExperimentPlan and the engine share.

#include <cstdint>
#include <optional>
#include <string>

#include "support/prng.h"

namespace dex::sim {

/// The salt folded into a trial seed to derive the event engine's RNG
/// (latency samples, loss trials, retransmit backoff). A distinct stream id
/// from the adversary's (raw seed), the overlay's (kOverlaySeedSalt) and the
/// traffic generator's (kTrafficSeedSalt) streams, so turning asynchrony on
/// never perturbs the churn or request draws.
inline constexpr std::uint64_t kEventSeedSalt = 0x2545f4914f6cdd1dULL;

/// Per-message link latency distribution, in virtual ticks. Parsed from the
/// CLI syntax `fixed:T`, `uniform:A,B`, `exp:MEAN` (to_string() round-trips
/// it for the JSON summary). Samples are i.i.d. per delivery; stragglers
/// multiply the sampled value (EventSpec::straggler_factor).
struct LatencyModel {
  enum class Kind { kFixed, kUniform, kExp };
  Kind kind = Kind::kFixed;
  /// kFixed: the value. kUniform: inclusive lower bound. kExp: the mean.
  std::uint64_t a = 0;
  /// kUniform only: inclusive upper bound (>= a).
  std::uint64_t b = 0;

  /// One draw, in ticks. kFixed consumes no RNG; the other kinds consume
  /// exactly one draw per call — deterministic either way, because every
  /// call site is reached in deterministic event order.
  [[nodiscard]] std::uint64_t sample(support::Rng& rng) const;

  /// Expected value (the bench sweep's x-axis).
  [[nodiscard]] double mean() const;

  /// Canonical spelling ("fixed:3", "uniform:1,4", "exp:8") — what the CLI
  /// accepts and the JSON summary archives.
  [[nodiscard]] std::string to_string() const;

  /// Parses the canonical spelling; nullopt on anything else (unknown kind,
  /// trailing garbage, uniform bounds out of order).
  [[nodiscard]] static std::optional<LatencyModel> parse(
      const std::string& text);
};

/// Declarative description of the delivery regime. The ScenarioRunner has
/// one loop; a default-constructed EventSpec (latency fixed:0, loss 0, no
/// stragglers, period 1) is the lockstep schedule, and that is the regime
/// the runner uses whenever `enabled` is false (`--engine sync`), whatever
/// the other fields hold.
struct EventSpec {
  /// Engine selector (`--engine sync|event`): whether the knobs below are
  /// used, and whether the summary archives them. Adds no code path.
  bool enabled = false;
  /// Per-message link latency (ticks); fixed:0 means instant delivery.
  LatencyModel latency;
  /// I.i.d. loss probability per delivery. Lost messages are retransmitted
  /// after a 1-tick timeout plus a fresh latency draw (and counted in the
  /// trace's `dropped` column), so every delivery eventually lands; must be
  /// < 1 for the retransmit loop to terminate.
  double loss_rate = 0.0;
  /// Fraction of nodes that are stragglers. Membership is a pure hash of
  /// the node id and the trial seed — stable under churn, no RNG stream
  /// consumed — so joiners get straggler status deterministically too.
  double straggler_fraction = 0.0;
  /// Latency multiplier applied to deliveries whose destination straggles.
  std::uint64_t straggler_factor = 4;
  /// Virtual ticks between churn-batch injections. With latency above one
  /// period, batch t+1 is drawn (and its deliveries launched) before batch
  /// t's walks settle — the healing-racing-churn regime lockstep rounds
  /// cannot express.
  std::uint64_t period = 1;

  /// Bounds the engine refuses to run outside (loss < 1, period >= 1,
  /// straggler knobs sane). The CLI validates with the same predicate.
  [[nodiscard]] bool valid() const {
    return loss_rate >= 0.0 && loss_rate < 1.0 &&
           straggler_fraction >= 0.0 && straggler_fraction <= 1.0 &&
           straggler_factor >= 1 && period >= 1;
  }
};

}  // namespace dex::sim
