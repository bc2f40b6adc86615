#pragma once

/// \file experiment.h
/// The declarative sweep layer over the single-trial ScenarioRunner kernel:
/// the paper's headline claims are comparative (DEX vs. flooding, Law–Siu,
/// flip-chain, Xheal across populations, batch sizes and adversaries), so
/// the unit of experimentation here is a *plan* — a grid of backends ×
/// strategies × populations × batch sizes × seeds — not a hand-rolled
/// nested loop per bench.
///
/// ExperimentPlan::expand() turns the grid into a deterministic list of
/// fully self-describing TrialSpecs (spec + overlay factory + strategy
/// factory); the Executor runs them on a bounded thread pool, each trial
/// owning its overlay/strategy/RNG, and delivers results and sink events in
/// trial-index order — so output is byte-identical whatever the thread
/// count or completion order.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"

namespace dex::sim {

/// The salt folded into a trial seed to derive the overlay's internal seed:
/// the adversary's random stream (spec.seed, drives the strategy) must be
/// independent of the backend's own coins (§2 hides only the algorithm's
/// future flips). Same derivation the CLI has always used, so a one-trial
/// plan reproduces the classic single-run output byte-for-byte.
inline constexpr std::uint64_t kOverlaySeedSalt = 0x9e3779b97f4a7c15ULL;

[[nodiscard]] inline std::uint64_t overlay_seed(std::uint64_t trial_seed) {
  return trial_seed ^ kOverlaySeedSalt;
}

/// One grid point, fully self-describing: everything the Executor needs to
/// run the trial on any thread — the resolved ScenarioSpec plus factories
/// for the overlay and the strategy (fresh objects per trial; strategies
/// are stateful). expand() wires the default factories from the name
/// registries (make_overlay / make_strategy) *after* the plan's customize
/// hook has run, from the trial's final backend/n0/spec.seed/opts — so a
/// hook that remaps those fields reaches the constructed objects; a hook
/// that installs its own factory keeps it.
struct TrialSpec {
  std::size_t index = 0;
  std::string backend;
  std::string scenario;
  std::size_t n0 = 0;
  ScenarioSpec spec;
  StrategyOptions opts;
  std::function<std::unique_ptr<HealingOverlay>()> make_overlay;
  std::function<std::unique_ptr<adversary::Strategy>()> make_strategy;

  [[nodiscard]] TrialInfo info() const {
    return TrialInfo{index, backend, scenario, n0, spec.seed,
                     spec.batch_size};
  }
};

/// Declarative sweep grid. expand() emits the cross product in a fixed
/// nesting order — backends, then scenarios, then populations, then batch
/// sizes, then seeds innermost — so consecutive trials are seed replicates
/// of one configuration and the trial index is a stable join key across
/// runs. Per-trial deviations from the grid (per-backend step caps, custom
/// overlay construction, label suffixes) go through `customize`, which runs
/// last on every expanded TrialSpec.
struct ExperimentPlan {
  std::vector<std::string> backends{"dex-worstcase"};
  std::vector<std::string> scenarios{"churn"};
  std::vector<std::size_t> populations{64};
  std::vector<std::size_t> batch_sizes{1};
  std::vector<std::uint64_t> seeds{1};
  /// Template for every trial's ScenarioSpec; expand() fills seed,
  /// batch_size and (when empty) label per grid point.
  ScenarioSpec base;
  StrategyOptions opts;
  std::function<void(TrialSpec&)> customize;

  [[nodiscard]] std::size_t trial_count() const {
    return backends.size() * scenarios.size() * populations.size() *
           batch_sizes.size() * seeds.size();
  }

  /// The one check of a plan's contents, for front-ends to call before
  /// expand(): every axis non-empty and every name known, batch sizes and
  /// probabilities in range, the workload, event and serve specs the
  /// runner accepts, --burst only with batches to pace, and population
  /// bounds the runner can honor for every n0. Returns the first problem
  /// as a one-line message (naming the dex_sim_cli flag that sets the
  /// field), nullopt for a runnable plan. The customize hook is not run.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// The deterministic trial list. Aborts (DEX_ASSERT) with validate()'s
  /// message on a plan that fails it: front-ends report that message
  /// first, so an abort here is a harness bug, not a workload.
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

struct ExecutorOptions {
  /// Worker threads; 0 = hardware concurrency. Results never depend on it.
  std::size_t jobs = 1;
};

/// Runs trials concurrently on a bounded pool. Each worker owns its trial's
/// overlay/strategy/RNG end to end, so a trial's bytes depend only on its
/// TrialSpec; the executor re-orders completion so sinks see trial-index
/// order. Sinks are the only way results leave: in-process consumers
/// register an AggregateSink. Steps are buffered only when some sink wants
/// them (MetricSink::wants_steps), and in-flight buffers are bounded by a
/// reorder window of 2*jobs trials — peak memory is O(jobs * steps),
/// independent of the trial count.
class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {}) : opts_(opts) {}

  /// Borrowed sink; must outlive run(). Events are delivered serialized, in
  /// trial-index order.
  void add_sink(MetricSink& sink) { sinks_.push_back(&sink); }

  /// Runs every trial (trial i = trials[i]; TrialSpec::index is rewritten
  /// to the position so concatenated lists stay coherent) and delivers each
  /// to every sink.
  void run(std::vector<TrialSpec> trials);

 private:
  ExecutorOptions opts_;
  std::vector<MetricSink*> sinks_;
};

}  // namespace dex::sim
