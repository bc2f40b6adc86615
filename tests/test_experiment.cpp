// The declarative sweep layer (sim/experiment.h) and the streaming sinks
// (sim/sinks.h): deterministic plan expansion, executor byte-determinism
// across thread counts, index-ordered delivery, and the sink conformance
// contract (nesting, ordering, steps only to sinks that want them,
// aggregate coherence). Plus the
// per-node degree semantics of the flooding adapter the sweep relies on.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"

using namespace dex;

namespace {

/// A small but genuinely mixed grid: multiple backends, a batch axis and
/// seed replicates, sized so jobs=8 actually interleaves completions.
sim::ExperimentPlan small_plan() {
  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase", "flood", "lawsiu"};
  plan.scenarios = {"churn", "burst"};
  plan.populations = {24};
  plan.batch_sizes = {1, 5};
  plan.seeds = {1, 2};
  plan.base.steps = 20;
  return plan;
}

struct SweepOutput {
  std::string csv;
  std::string json;
  std::vector<std::string> summaries;
};

SweepOutput run_sweep(const sim::ExperimentPlan& plan, std::size_t jobs) {
  std::ostringstream csv, json;
  sim::CsvTraceSink csv_sink(csv);
  sim::JsonSummarySink json_sink(json);
  sim::AggregateSink agg;
  sim::ExecutorOptions opts;
  opts.jobs = jobs;
  sim::Executor executor(opts);
  executor.add_sink(csv_sink);
  executor.add_sink(json_sink);
  executor.add_sink(agg);
  executor.run(plan.expand());
  SweepOutput out{csv.str(), json.str(), {}};
  for (const auto& row : agg.rows()) {
    out.summaries.push_back(sim::summary_json(row.result));
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- expansion

TEST(ExperimentPlan, ExpandsFullGridInDeterministicOrder) {
  const auto plan = small_plan();
  const auto trials = plan.expand();
  ASSERT_EQ(trials.size(), plan.trial_count());
  ASSERT_EQ(trials.size(), 3u * 2u * 1u * 2u * 2u);

  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].index, i);
  }
  // Nesting: backends outermost, seeds innermost.
  EXPECT_EQ(trials[0].backend, "dex-worstcase");
  EXPECT_EQ(trials[0].spec.seed, 1u);
  EXPECT_EQ(trials[1].spec.seed, 2u);
  EXPECT_EQ(trials[0].spec.batch_size, 1u);
  EXPECT_EQ(trials[2].spec.batch_size, 5u);
  EXPECT_EQ(trials[4].scenario, "burst");
  EXPECT_EQ(trials[8].backend, "flood");

  // Expansion is pure: a second expansion describes the same trials.
  const auto again = plan.expand();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].backend, again[i].backend);
    EXPECT_EQ(trials[i].scenario, again[i].scenario);
    EXPECT_EQ(trials[i].n0, again[i].n0);
    EXPECT_EQ(trials[i].spec.seed, again[i].spec.seed);
    EXPECT_EQ(trials[i].spec.batch_size, again[i].spec.batch_size);
    EXPECT_EQ(trials[i].spec.label, again[i].spec.label);
  }
}

TEST(ExperimentPlan, CustomizeHookAppliesPerTrial) {
  auto plan = small_plan();
  plan.customize = [](sim::TrialSpec& t) {
    t.spec.steps = t.backend == "flood" ? 5 : 20;
    t.spec.label += "/tagged";
  };
  const auto trials = plan.expand();
  for (const auto& t : trials) {
    EXPECT_EQ(t.spec.steps, t.backend == "flood" ? 5u : 20u);
    EXPECT_NE(t.spec.label.find("/tagged"), std::string::npos);
  }
}

TEST(ExperimentPlan, FactoriesProduceSelfDescribedTrial) {
  auto plan = small_plan();
  const auto trials = plan.expand();
  for (const auto& t : {trials.front(), trials.back()}) {
    auto overlay = t.make_overlay();
    ASSERT_NE(overlay, nullptr);
    EXPECT_EQ(std::string(overlay->name()), t.backend);
    EXPECT_GE(overlay->n(), t.n0);
    auto strategy = t.make_strategy();
    EXPECT_NE(strategy, nullptr);
  }
}

// ----------------------------------------------------------- determinism

TEST(ExperimentPlan, ValidateReportsTheFirstProblemOrNothing) {
  sim::ExperimentPlan plan = small_plan();
  EXPECT_EQ(plan.validate(), std::nullopt);
  // Library callers get the same one-line messages the CLI prints.
  plan.populations = {24, 2};
  EXPECT_EQ(plan.validate(),
            "population bounds must satisfy 3 <= min < max (got min=4 max=4 "
            "for n0=2; defaults derive from --n0)");
  plan.base.serve.enabled = true;  // checked before the bounds
  EXPECT_EQ(plan.validate(), "--serve needs --engine event and a --workload");
  plan.scenarios.clear();
  EXPECT_EQ(plan.validate(), "every plan axis needs at least one value");
}

TEST(Executor, ByteIdenticalOutputAcrossJobCounts) {
  const auto plan = small_plan();
  const auto serial = run_sweep(plan, 1);
  const auto parallel = run_sweep(plan, 8);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
  ASSERT_EQ(serial.summaries.size(), parallel.summaries.size());
  for (std::size_t i = 0; i < serial.summaries.size(); ++i) {
    EXPECT_EQ(serial.summaries[i], parallel.summaries[i]) << i;
  }
  // The sweep actually produced output for every trial.
  EXPECT_EQ(serial.summaries.size(), plan.trial_count());
  EXPECT_NE(serial.csv.find("\n0,"), std::string::npos);
}

TEST(Executor, ResultsOrderedByTrialIndexNotFinishTime) {
  // Trials with wildly different run times: the big-n0 trials land first in
  // the plan and finish last under jobs>1.
  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase"};
  plan.populations = {128, 16};
  plan.seeds = {1, 2};
  plan.base.steps = 60;
  sim::ExecutorOptions opts;
  opts.jobs = 4;
  sim::Executor executor(opts);
  sim::AggregateSink agg;
  executor.add_sink(agg);
  executor.run(plan.expand());
  const auto& rows = agg.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].result.start_n, 128u);
  EXPECT_EQ(rows[1].result.start_n, 128u);
  EXPECT_EQ(rows[2].result.start_n, 16u);
  EXPECT_EQ(rows[3].result.start_n, 16u);
  for (const auto& row : rows) {
    const auto& r = row.result;
    EXPECT_EQ(r.backend, "dex-worstcase");
    // The executor never materializes traces.
    EXPECT_TRUE(r.trace.empty());
    EXPECT_EQ(r.rounds.count, 60u);
  }
}

// -------------------------------------------------------------- sinks

namespace {

/// Records the event stream to verify the delivery contract: per-trial
/// nesting (start, steps, end), step counts, and global index order. A
/// recorder built with wants_steps = false stands in for a summary-only sink.
class RecordingSink final : public sim::MetricSink {
 public:
  explicit RecordingSink(bool wants_steps = true) : wants_(wants_steps) {}

  [[nodiscard]] bool wants_steps() const override { return wants_; }

  struct TrialLog {
    std::size_t index = 0;
    std::size_t steps = 0;
    bool ended = false;
  };

  void on_trial_start(const sim::TrialInfo& trial) override {
    ASSERT_TRUE(trials.empty() || trials.back().ended)
        << "trial events must not interleave";
    ASSERT_EQ(trial.index, trials.size()) << "trials must arrive in order";
    trials.push_back({trial.index, 0, false});
  }
  void on_step(const sim::TrialInfo& trial,
               const sim::StepRecord& rec) override {
    ASSERT_FALSE(trials.empty());
    ASSERT_EQ(trial.index, trials.back().index);
    ASSERT_FALSE(trials.back().ended);
    ASSERT_EQ(rec.step, trials.back().steps) << "steps must arrive in order";
    ++trials.back().steps;
  }
  void on_trial_end(const sim::TrialInfo& trial,
                    const sim::ScenarioResult& result) override {
    ASSERT_FALSE(trials.empty());
    ASSERT_EQ(trial.index, trials.back().index);
    EXPECT_TRUE(result.trace.empty());
    if (wants_) {
      EXPECT_EQ(result.rounds.count, trials.back().steps);
    }
    trials.back().ended = true;
  }

  std::vector<TrialLog> trials;

 private:
  bool wants_;
};

}  // namespace

TEST(Sinks, DeliveryContractHoldsUnderParallelExecution) {
  const auto plan = small_plan();
  RecordingSink recorder;
  sim::ExecutorOptions opts;
  opts.jobs = 8;
  sim::Executor executor(opts);
  executor.add_sink(recorder);
  executor.run(plan.expand());
  ASSERT_EQ(recorder.trials.size(), plan.trial_count());
  for (const auto& t : recorder.trials) {
    EXPECT_TRUE(t.ended);
    EXPECT_EQ(t.steps, 20u);
  }
}

TEST(Sinks, CsvTraceSinkSingleTrialMatchesMaterializedTrace) {
  // The streaming emission and the classic materialize-then-trace_csv path
  // must be byte-identical on the same trial.
  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase"};
  plan.populations = {24};
  plan.seeds = {9};
  plan.base.steps = 40;
  plan.base.measure_degree = true;
  plan.base.gap_every = 8;

  std::ostringstream streamed;
  sim::CsvTraceSink sink(streamed, /*trial_column=*/false);
  sim::AggregateSink agg;
  sim::Executor executor;
  executor.add_sink(sink);
  executor.add_sink(agg);
  executor.run(plan.expand());
  ASSERT_EQ(agg.rows().size(), 1u);

  auto trials = plan.expand();
  auto overlay = trials[0].make_overlay();
  auto strategy = trials[0].make_strategy();
  sim::ScenarioRunner runner(*overlay, *strategy, trials[0].spec);
  const auto materialized = runner.run();
  EXPECT_EQ(streamed.str(), sim::trace_csv(materialized));
  EXPECT_EQ(sim::summary_json(agg.rows()[0].result),
            sim::summary_json(materialized));
}

TEST(Sinks, StepsReachOnlySinksThatWantThem) {
  // One executor, a summary-only sink beside a step consumer: the first
  // sees no on_step at all, the second every step, and both (plus the
  // aggregate and JSON sinks) see the same trial order.
  const auto plan = small_plan();
  RecordingSink summary_only(/*wants_steps=*/false);
  RecordingSink steps;
  sim::AggregateSink agg;
  std::ostringstream json;
  sim::JsonSummarySink json_sink(json);
  sim::ExecutorOptions opts;
  opts.jobs = 8;
  sim::Executor executor(opts);
  executor.add_sink(summary_only);
  executor.add_sink(steps);
  executor.add_sink(agg);
  executor.add_sink(json_sink);
  executor.run(plan.expand());

  ASSERT_EQ(summary_only.trials.size(), plan.trial_count());
  ASSERT_EQ(steps.trials.size(), plan.trial_count());
  ASSERT_EQ(agg.rows().size(), plan.trial_count());
  std::istringstream lines(json.str());
  std::string line;
  for (std::size_t i = 0; i < plan.trial_count(); ++i) {
    EXPECT_EQ(summary_only.trials[i].index, i);
    EXPECT_EQ(steps.trials[i].index, i);
    EXPECT_EQ(summary_only.trials[i].steps, 0u);
    EXPECT_EQ(steps.trials[i].steps, 20u);
    EXPECT_TRUE(summary_only.trials[i].ended && steps.trials[i].ended);
    const auto& row = agg.rows()[i];
    EXPECT_EQ(row.info.index, i);
    EXPECT_TRUE(row.result.trace.empty());
    const std::string want = "{\"trial\": " + std::to_string(i) + ", " +
                             sim::summary_json(row.result).substr(1);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, want);
  }
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(Sinks, JsonSummarySinkLeadsWithTrialIndex) {
  sim::ExperimentPlan plan;
  plan.populations = {16};
  plan.seeds = {3, 4};
  plan.base.steps = 8;
  std::ostringstream json;
  sim::JsonSummarySink sink(json);
  sim::Executor executor;
  executor.add_sink(sink);
  executor.run(plan.expand());
  EXPECT_EQ(json.str().rfind("{\"trial\": 0, ", 0), 0u);
  EXPECT_NE(json.str().find("\n{\"trial\": 1, "), std::string::npos);
}

// ------------------------------------------------- flood per-node degree

TEST(FloodOverlay, LoadReportsPerNodeDegreeNotTheBalancedMax) {
  sim::FloodRebuildOverlay overlay(10);
  // Ownership is round-robin over p virtual vertices: every node's degree
  // is 3 * its vertex count, and the counts sum to p.
  std::size_t total = 0;
  std::size_t max_load = 0;
  for (auto u : overlay.alive_nodes()) {
    const std::size_t load = overlay.load(u);
    EXPECT_EQ(load % 3, 0u);
    total += load;
    max_load = std::max(max_load, load);
  }
  EXPECT_EQ(total, 3 * overlay.net().p());
  EXPECT_EQ(max_load, overlay.max_degree());
  // p is prime, so it is never a multiple of n >= 2: the balanced mapping
  // still leaves some node one vertex (3 edges) lighter than the max —
  // exactly the per-node signal the old max-for-everyone report erased.
  bool some_below_max = false;
  for (auto u : overlay.alive_nodes()) {
    some_below_max |= overlay.load(u) < overlay.max_degree();
  }
  EXPECT_TRUE(some_below_max);
  // Churn keeps the invariant.
  overlay.remove(3);
  overlay.insert(0);
  total = 0;
  for (auto u : overlay.alive_nodes()) total += overlay.load(u);
  EXPECT_EQ(total, 3 * overlay.net().p());
}
