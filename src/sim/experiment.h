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

  /// The deterministic trial list. Aborts (DEX_ASSERT) on unknown backend
  /// or scenario names and on an empty axis — a malformed plan is a harness
  /// bug, not a workload.
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

struct ExecutorOptions {
  /// Worker threads; 0 = hardware concurrency. Results never depend on it.
  std::size_t jobs = 1;
  /// Threads each trial may use *inside* one churn step (walk port
  /// enumeration — HealingOverlay::set_intra_jobs). Composes with `jobs`:
  /// total concurrency ≈ jobs * trial_jobs. Byte-identical results for
  /// every value; worth raising only for few-but-huge trials (one n=1M
  /// trial wants intra-step threads, a 3000-trial sweep wants inter-trial
  /// ones).
  unsigned trial_jobs = 1;
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
