#pragma once

/// \file scenario.h
/// The scenario engine: drives any HealingOverlay with any
/// adversary::Strategy under a declarative ScenarioSpec, producing a
/// deterministic per-step trace (StepRecord stream) plus aggregate stats,
/// emitted as CSV/JSON through src/metrics. Every bench, example and the
/// CLI runs its churn through this one loop instead of hand-rolled
/// per-backend drivers.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/campaign.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "serve/serve.h"
#include "sim/event/event.h"
#include "sim/meters.h"
#include "sim/overlay.h"
#include "sim/workload.h"

namespace dex::sim {

/// Declarative description of one experiment run. Everything that affects
/// the trace is here (plus the strategy object), so spec + seed + overlay
/// state fully determine the byte-exact output.
struct ScenarioSpec {
  std::uint64_t seed = 1;
  /// Steps driven by the strategy (after warmup); each step is one
  /// ChurnBatch (one churn event when batch_size is 1, the default).
  std::size_t steps = 256;
  /// Events per batch step (§5 model). 1 = the classic single-event
  /// adversary of §2; >1 asks the strategy for up-to-this-many-event
  /// batches via next_batch (near a population bound a batch may come back
  /// smaller).
  std::size_t batch_size = 1;
  /// Burst pattern: 0 = every step uses batch_size; k >= 1 = only every
  /// k-th step (t % k == 0) is a batch_size burst, the steps between are
  /// single events — calm-then-burst workloads from one knob.
  std::size_t burst_every = 0;
  /// Population bounds handed to the strategy. 0 means "derive from the
  /// overlay's starting population": min = max(n0/2, 4), max = 2*n0.
  /// Enforcement is the strategy's job; the single-sided workloads
  /// (InsertOnly/DeleteOnly) deliberately ignore the opposite bound.
  std::size_t min_n = 0;
  std::size_t max_n = 0;
  /// Warmup-then-attack: this many uniform random-churn steps run before
  /// the strategy takes over. Warmup steps are not recorded in the trace.
  std::size_t warmup_steps = 0;
  double warmup_insert_prob = 0.5;
  /// Sample the spectral gap every k recorded steps (0 = never). Sampled
  /// records carry gap >= 0 (clamped at 0); others carry -1.
  std::size_t gap_every = 0;
  /// Record the max real degree each step (costs one snapshot scan).
  bool measure_degree = false;
  /// Materialize the StepRecord trace in the result. Aggregates are
  /// computed either way; turn this off for long runs where only the
  /// summary (or the step observer) is consumed.
  bool record_trace = true;
  /// Key-value traffic interleaved with the churn (sim/workload.h): after
  /// each applied ChurnBatch the runner re-homes displaced keys and serves
  /// traffic.ops_per_step requests through the overlay's routing surface.
  /// Disabled by default (traffic.workload empty); the request stream uses
  /// its own RNG, so enabling it replays the same churn byte-for-byte.
  TrafficSpec traffic;
  /// The delivery regime (sim/event/event.h). Every trial runs on the one
  /// discrete-event loop; with event.enabled false (the `sync` engine) the
  /// loop uses a default EventSpec — latency fixed:0, loss 0, no
  /// stragglers, period 1 — which is exactly lockstep rounds, and these
  /// knobs are ignored. event.enabled also archives the regime: only then
  /// does the summary carry the engine fields. The knobs ride the spec, so
  /// they flow through ExperimentPlan/Executor untouched.
  EventSpec event;
  /// The serving front-end (serve/serve.h): with serve.enabled (requires
  /// event.enabled and a traffic workload) requests stop firing as per-step
  /// batches and become closed-loop client actors on the event clock — op
  /// issue, routed delivery, admission at the home's bounded queue, service,
  /// response, think time. The trace gains shed/timeouts/qdepth columns and
  /// the summary a serve block with p50/p99/p999 latency and throughput.
  serve::ServeSpec serve;
  /// Accumulate wall-clock phase totals (churn/view-maintenance/traffic)
  /// into the result. Off by default: the totals never appear in traces or
  /// summary JSON (the determinism contract covers bytes, not wall time),
  /// but benches (bench_scale) read them to attribute per-step cost.
  bool time_phases = false;
  /// Phased adversary campaign (adversary/campaign.h), parsed once at the
  /// edge (parse_campaign_spec). Absent (the default) = drive the single
  /// strategy the classic way. Present: the runner routes *every* step
  /// through Strategy::next_batch — rate-gated and quiet phases come back
  /// as legal empty batches — and scales the traffic stream by the spec's
  /// per-step load curve. The summary archives its `source` string.
  std::optional<adversary::CampaignSpec> campaign;
  /// Free-form scenario/strategy label identifying the workload in the
  /// emitted summary. The summary records every ScenarioSpec parameter;
  /// strategy-internal knobs (a Strategy is an opaque object) are the
  /// caller's to archive — fold them into the label if they matter.
  std::string label;
};

/// The population bounds a spec resolves to for a given starting
/// population (0 means "derive": min = max(n0/2, 4), max = 2*n0). Shared by
/// ScenarioRunner::run and anything validating a spec up front (the CLI) so
/// the two can never disagree. Bounds are valid iff min_n >= 3 (the runner
/// refuses to delete the network below 3 nodes) and min_n < max_n.
struct ResolvedBounds {
  std::size_t min_n = 0;
  std::size_t max_n = 0;
  [[nodiscard]] bool valid() const { return min_n >= 3 && min_n < max_n; }
};
[[nodiscard]] ResolvedBounds resolve_bounds(const ScenarioSpec& spec,
                                            std::size_t n0);

/// One recorded step = one applied ChurnBatch. Single-event batches keep
/// the PR-1 per-event fields (insert/target/new_node) populated; multi-event
/// batches carry the batch columns and leave target/new_node at
/// kInvalidNode (emitted blank in the CSV, op = "batch").
struct StepRecord {
  std::uint64_t step = 0;
  bool insert = true;
  /// Attach point (insertions) or victim (deletions), as the strategy
  /// chose; kInvalidNode for multi-event batches.
  graph::NodeId target = graph::kInvalidNode;
  /// Id of the inserted node; kInvalidNode for deletions and batches.
  graph::NodeId new_node = graph::kInvalidNode;
  /// Population after the step.
  std::size_t n = 0;
  StepCost cost;
  /// Batch composition: insertions / deletions applied this step.
  std::size_t batch_inserts = 0;
  std::size_t batch_deletes = 0;
  /// Parallel-walk epochs the batch needed (0 on the sequential path).
  std::uint64_t walk_epochs = 0;
  /// Whether a type-2 rebuild fired inside the batch.
  bool used_type2 = false;
  /// Max real degree after the step; 0 unless spec.measure_degree.
  std::size_t max_degree = 0;
  /// Spectral gap after the step; -1 unless sampled (spec.gap_every).
  double gap = -1.0;
  // --- traffic fields (all 0 unless spec.traffic is enabled) ---
  /// Requests served after this step's churn.
  std::size_t ops = 0;
  /// Total realized route hops across those requests (gets pay the round
  /// trip) and the BFS-optimal total for the same (origin, home) pairs —
  /// their ratio is the step's routing stretch.
  std::uint64_t op_hops = 0;
  std::uint64_t opt_hops = 0;
  /// Reads of an acknowledged key that missed or returned a stale value.
  std::size_t failed_lookups = 0;
  /// Writes whose request could not be delivered (no ack, nothing stored).
  std::size_t failed_writes = 0;
  /// Keys re-homed by this step's churn, and the transfer messages charged.
  std::size_t moved_keys = 0;
  std::uint64_t rehash_messages = 0;
  // --- delivery fields (lockstep: vtime == step, the rest 0) ---
  /// Virtual time (ticks) when the step finalized. Injection happens at
  /// step * event.period; the difference is the step's settle lag.
  std::uint64_t vtime = 0;
  /// Churn deliveries of *other* steps still in the air at finalization —
  /// nonzero exactly when healing is racing churn.
  std::size_t in_flight = 0;
  /// Deliveries this step lost to message loss (each retransmitted) plus
  /// constituents invalidated by racing churn before they could apply.
  std::size_t dropped = 0;
  // --- serving front-end fields (all 0 unless spec.serve is enabled) ---
  /// Requests shed by admission control in this record's serving window
  /// (serve mode: the window between the previous finalization and this
  /// one; `ops` counts the window's *completed* ops there).
  std::size_t shed = 0;
  /// Completed ops whose end-to-end latency breached spec.serve.op_timeout.
  std::size_t timeouts = 0;
  /// Deepest per-home request queue observed in the window.
  std::size_t queue_peak = 0;
};

struct ScenarioResult {
  std::string backend;
  ScenarioSpec spec;
  std::vector<StepRecord> trace;
  /// Per-step cost summaries over the recorded trace.
  metrics::Summary rounds;
  metrics::Summary messages;
  metrics::Summary topology;
  /// Componentwise sum over the recorded trace.
  StepCost total;
  /// Batch aggregates over the recorded trace.
  std::size_t total_inserts = 0;
  std::size_t total_deletes = 0;
  std::uint64_t total_walk_epochs = 0;
  std::size_t type2_steps = 0;     ///< steps whose batch used a type-2 rebuild
  std::size_t parallel_steps = 0;  ///< steps served by a parallel batch path
  std::size_t max_degree = 0;  ///< max over trace (0 unless measured)
  double min_gap = 1.0;        ///< min over sampled records (1.0 if none)
  std::size_t start_n = 0;     ///< population when run() began
  std::size_t final_n = 0;
  /// Traffic aggregates over all executed steps — accumulated whether or
  /// not the trace is recorded (0 with traffic disabled).
  std::size_t total_ops = 0;
  std::uint64_t total_op_hops = 0;
  std::uint64_t total_opt_hops = 0;
  std::size_t total_failed_lookups = 0;
  std::size_t total_failed_writes = 0;
  std::size_t total_moved_keys = 0;
  std::uint64_t total_rehash_messages = 0;
  /// Delivery aggregates (both 0 under lockstep).
  std::uint64_t total_dropped = 0;
  std::size_t max_in_flight = 0;
  /// Serving front-end aggregates (all 0/empty unless spec.serve.enabled).
  std::size_t serve_completed = 0;  ///< ops served to completion
  std::size_t serve_shed = 0;       ///< requests rejected by admission
  std::size_t serve_timeouts = 0;   ///< completions past the SLO
  std::size_t serve_peak_queue = 0;
  /// Tick of the last serve/traffic event — the denominator of the
  /// summary's throughput (completed ops per tick).
  std::uint64_t serve_makespan = 0;
  /// End-to-end op latency of every completed serve op.
  metrics::LatencyHistogram serve_latency;
  /// Wall-clock phase totals in microseconds, summed over the measured
  /// steps; all 0 unless spec.time_phases. Deliberately absent from
  /// trace_csv/summary_json so timing can never perturb byte-identity.
  /// Overlay apply (healing); the strategy draw is not timed.
  double churn_us = 0.0;
  double view_us = 0.0;     ///< AdversaryView::advance — journal drain + patch
  double traffic_us = 0.0;  ///< key re-homing + request serving
};

class ScenarioRunner {
 public:
  /// Called after each recorded step, before the next strategy decision.
  /// This is the single-trial hook; experiment-level consumers should use
  /// the streaming MetricSink interface (sim/sinks.h) via the Executor
  /// (sim/experiment.h), which forwards every StepRecord without the trace
  /// ever being materialized.
  using StepObserver =
      std::function<void(const StepRecord&, HealingOverlay&)>;

  ScenarioRunner(HealingOverlay& overlay, adversary::Strategy& strategy,
                 ScenarioSpec spec);

  void set_observer(StepObserver observer) {
    observer_ = std::move(observer);
  }

  /// Runs warmup + spec.steps strategy steps and returns the trace with
  /// aggregates. Deterministic: same overlay state + spec + strategy state
  /// in, byte-identical trace out. One discrete-event loop
  /// (sim/event/engine.cpp) under the spec's delivery regime; records
  /// finalize (and reach the observer) in settlement order, which is step
  /// order under lockstep and may not be once latency outruns the period.
  ScenarioResult run();

 private:
  HealingOverlay& overlay_;
  adversary::Strategy& strategy_;
  ScenarioSpec spec_;
  StepObserver observer_;
};

/// Strategy factory keyed by the scenario names the CLI exposes:
/// "churn", "insert-only", "delete-only", "oscillate", "targeted"
/// (coordinator killer), "load-attack", "spectral", "greedy-spectral",
/// plus the batch-native workloads "burst" (mixed §5-safe bursts),
/// "flash-crowd" (insert waves), "mass-failure" (correlated clustered
/// deletions), "oracle-bust" (region-scattering churn whose orphaned keys
/// cost the DistanceOracle one full BFS per scattered destination),
/// "chord-cut" (betweenness-proxy deletion of
/// p-cycle chord carriers) and "spectral-batch" (whole-batch sweep-cut
/// demolition). Returns nullptr for unknown names.
struct StrategyOptions {
  double insert_prob = 0.5;  ///< churn, burst (insert fraction)
};
[[nodiscard]] std::unique_ptr<adversary::Strategy> make_strategy(
    const std::string& scenario, const StrategyOptions& opts = {});

/// The strategy names make_strategy accepts, in canonical order.
[[nodiscard]] const std::vector<std::string>& known_strategies();

/// Comma-separated list of valid scenario names (for usage messages).
[[nodiscard]] const char* strategy_names();

/// Parses a `--campaign` string against the strategy registry above
/// (adversary::parse_campaign with known_strategies() as the name list).
/// nullopt + a single-line actionable message in *error on failure.
[[nodiscard]] std::optional<adversary::CampaignSpec> parse_campaign_spec(
    const std::string& text, std::string* error = nullptr);

/// Builds the CampaignStrategy for a parsed campaign, wiring make_strategy
/// (with `opts`) as the per-phase sub-strategy factory.
[[nodiscard]] std::unique_ptr<adversary::Strategy> make_campaign_strategy(
    adversary::CampaignSpec campaign, const StrategyOptions& opts = {});

/// The canonical trace columns: step,op,target,new_node,n,rounds,messages,
/// topology_changes,batch_inserts,batch_deletes,walk_epochs,used_type2,
/// max_degree,gap,ops,op_hops,opt_hops,failed_lookups,failed_writes,
/// stretch,moved_keys,rehash_messages,vtime,in_flight,dropped (stretch =
/// op_hops/opt_hops, blank when no routed op — matching the summary JSON,
/// which omits mean_stretch in that case; the traffic columns are 0/blank
/// when the spec carries no workload; the trailing event columns read
/// vtime == step, 0, 0 under lockstep).
/// Shared by trace_csv below and the streaming CsvTraceSink (sim/sinks.h)
/// so the two emission paths can never drift.
[[nodiscard]] const std::vector<std::string>& trace_csv_header();

/// One StepRecord rendered into the trace_csv_header() columns.
[[nodiscard]] std::vector<std::string> trace_csv_cells(const StepRecord& r);

/// The full per-step trace as CSV (stable header, stable formatting; see
/// trace_csv_header for the columns).
[[nodiscard]] std::string trace_csv(const ScenarioResult& result);

/// Aggregates as a single JSON object.
[[nodiscard]] std::string summary_json(const ScenarioResult& result);

}  // namespace dex::sim
