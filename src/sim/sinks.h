#pragma once

/// \file sinks.h
/// Streaming metric sinks: the experiment-level replacement for the
/// materialize-then-emit pattern (ScenarioResult::trace + trace_csv /
/// summary_json) and for per-bench StepObserver glue. A MetricSink receives
/// the life of every trial as a stream — on_trial_start, one on_step per
/// applied ChurnBatch, on_trial_end with the aggregates — so arbitrarily
/// long sweeps write CSV/JSON to disk in O(1) memory per in-flight trial
/// instead of holding every trace.
///
/// Delivery contract (what the Executor in sim/experiment.h guarantees and
/// the conformance tests in tests/test_experiment.cpp pin down):
///  - events of one trial are contiguous and ordered: start, steps, end.
///    Sync-engine trials deliver steps in step order; event-engine trials
///    (ScenarioSpec::event.enabled) deliver them in settlement order — the
///    order batches finished applying under latency, which the StepRecord's
///    step/vtime fields disambiguate — and that order is still deterministic
///    for a given spec + seed;
///  - trials are delivered in trial-index order, regardless of how many
///    worker threads ran them or which finished first;
///  - calls are serialized (never concurrent), so sink implementations need
///    no locking of their own;
///  - on_step reaches only the sinks that wants_steps(), and the Executor
///    buffers a trial's steps only when at least one registered sink does;
///    summary-only sweeps skip the per-step buffering altogether.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace dex::sim {

/// Identity of one trial in a sweep, handed to every sink callback. `index`
/// is the trial's position in the expanded plan — the deterministic
/// ordering key — and the remaining fields describe the grid point.
struct TrialInfo {
  std::size_t index = 0;
  std::string backend;
  std::string scenario;
  std::size_t n0 = 0;
  std::uint64_t seed = 0;
  std::size_t batch_size = 1;
};

class MetricSink {
 public:
  virtual ~MetricSink() = default;

  /// Whether this sink consumes on_step. Summary-only sinks return false,
  /// so a driver whose sinks all decline never buffers a step.
  [[nodiscard]] virtual bool wants_steps() const { return true; }

  virtual void on_trial_start(const TrialInfo& trial) { (void)trial; }
  /// One applied ChurnBatch. Only called on sinks that wants_steps().
  virtual void on_step(const TrialInfo& trial, const StepRecord& rec) {
    (void)trial;
    (void)rec;
  }
  /// Aggregates for the finished trial. `result.trace` is empty — the whole
  /// point of the sink interface is that nothing materializes it.
  virtual void on_trial_end(const TrialInfo& trial,
                            const ScenarioResult& result) {
    (void)trial;
    (void)result;
  }
};

/// Streams the per-step trace as CSV, one row per StepRecord, in the exact
/// trace_csv() format. With the leading trial column (default) rows from a
/// whole sweep share one file and stay attributable; without it, a
/// single-trial stream is byte-identical to trace_csv(result) on the same
/// run — the CLI's compatibility mode.
class CsvTraceSink final : public MetricSink {
 public:
  explicit CsvTraceSink(std::ostream& os, bool trial_column = true)
      : os_(os), trial_column_(trial_column) {}

  void on_trial_start(const TrialInfo& trial) override;
  void on_step(const TrialInfo& trial, const StepRecord& rec) override;

 private:
  std::ostream& os_;
  bool trial_column_;
  bool header_written_ = false;
};

/// Streams one summary_json() object per finished trial, newline-delimited
/// (JSONL). With the trial field (default) each line leads with
/// {"trial": i, ...}; without it, a single-trial stream matches the legacy
/// stderr summary byte-for-byte.
class JsonSummarySink final : public MetricSink {
 public:
  explicit JsonSummarySink(std::ostream& os, bool trial_field = true)
      : os_(os), trial_field_(trial_field) {}

  [[nodiscard]] bool wants_steps() const override { return false; }

  void on_trial_end(const TrialInfo& trial,
                    const ScenarioResult& result) override;

 private:
  std::ostream& os_;
  bool trial_field_;
};

/// Collects per-trial aggregates (info + trace-free ScenarioResult) for
/// in-process consumers — the benches' replacement for holding full
/// ScenarioResults. O(trials) memory, but each row is a fixed-size summary,
/// never a trace.
class AggregateSink final : public MetricSink {
 public:
  struct Row {
    TrialInfo info;
    ScenarioResult result;
  };

  [[nodiscard]] bool wants_steps() const override { return false; }

  void on_trial_end(const TrialInfo& trial,
                    const ScenarioResult& result) override {
    rows_.push_back({trial, result});
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace dex::sim
