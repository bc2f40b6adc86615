// The concurrent KV serving front-end (src/serve/ + the event engine's
// closed-loop client wiring). Pins: the conservation invariant (completed +
// shed == the offered op budget, zero lost acknowledged keys) on every
// backend, trace/summary byte-identity across --jobs,
// window-vs-total accounting consistency, and admission control visibly
// engaging under a rehash storm.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "sim/event/engine.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"

using namespace dex;

namespace {

const char* kAllBackends[] = {"dex-amortized", "dex-worstcase", "flood",
                              "lawsiu",        "randomflip",    "xheal"};

/// A serve trial that exercises everything at once: batch churn (rehash
/// storms), loss (request/response retransmits), hotspot traffic (targets
/// the churned keys), a shallow enough queue to shed and a tight enough SLO
/// to time out.
sim::ScenarioSpec serve_spec(std::uint64_t seed) {
  sim::ScenarioSpec spec;
  spec.seed = seed;
  spec.steps = 30;
  spec.batch_size = 4;
  spec.burst_every = 3;
  spec.traffic.workload = "hotspot";
  spec.traffic.ops_per_step = 24;
  spec.traffic.keyspace = 512;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("uniform:1,3");
  spec.event.loss_rate = 0.05;
  spec.serve.enabled = true;
  spec.serve.clients = 12;
  spec.serve.queue_depth = 3;
  spec.serve.service_ticks = 2;
  spec.serve.op_timeout = 40;
  return spec;
}

sim::ScenarioResult run_backend(const char* backend,
                                const sim::ScenarioSpec& spec,
                                const char* scenario = "churn") {
  auto overlay = sim::make_overlay(backend, 48, spec.seed ^ 0x5eedULL);
  auto strategy = sim::make_strategy(scenario);
  sim::ScenarioRunner runner(*overlay, *strategy, spec);
  return runner.run();
}

}  // namespace

TEST(ServeEngine, ConservesOpBudgetAndLosesNoKeysOnAllBackends) {
  // Every issued op either completes or is shed — never silently dropped —
  // and no acknowledged write is ever unreadable or stale. Insert-only
  // churn keeps every route intact (nodes never leave), so the failure
  // counters must be exactly zero; rehash still fires on every insertion.
  for (const char* backend : kAllBackends) {
    SCOPED_TRACE(backend);
    const auto spec = serve_spec(7);
    const auto r = run_backend(backend, spec, "insert-only");
    const std::size_t offered = spec.steps * spec.traffic.ops_per_step;
    EXPECT_EQ(r.serve_completed + r.serve_shed, offered);
    EXPECT_EQ(r.total_ops, r.serve_completed);
    EXPECT_EQ(r.serve_latency.count(), r.serve_completed);
    EXPECT_EQ(r.total_failed_lookups, 0u);
    EXPECT_EQ(r.total_failed_writes, 0u);
    EXPECT_GT(r.serve_makespan, 0u);
  }
}

TEST(ServeEngine, ConservesOpBudgetUnderAdversarialChurn) {
  // Full churn (joins AND leaves) on 48 nodes can sever an occasional
  // route mid-heal — the sync engine counts the same blips — so here the
  // failure counters are only bounded, but conservation stays exact.
  for (const char* backend : kAllBackends) {
    SCOPED_TRACE(backend);
    const auto spec = serve_spec(7);
    const auto r = run_backend(backend, spec);
    const std::size_t offered = spec.steps * spec.traffic.ops_per_step;
    EXPECT_EQ(r.serve_completed + r.serve_shed, offered);
    EXPECT_EQ(r.total_ops, r.serve_completed);
    EXPECT_LE(r.total_failed_lookups + r.total_failed_writes, 4u);
  }
}

TEST(ServeEngine, RerunIsByteIdentical) {
  const auto spec = serve_spec(13);
  const auto a = run_backend("dex-worstcase", spec);
  const auto b = run_backend("dex-worstcase", spec);
  EXPECT_EQ(sim::trace_csv(a), sim::trace_csv(b));
  EXPECT_EQ(sim::summary_json(a), sim::summary_json(b));
}

TEST(ServeEngine, WindowColumnsSumToTotals) {
  // The per-record serving windows partition the run: trace-column sums
  // must equal the summary totals exactly (no op, shed or timeout falls
  // between windows).
  const auto spec = serve_spec(17);
  const auto r = run_backend("dex-amortized", spec);
  std::size_t ops = 0, shed = 0, timeouts = 0, peak = 0;
  for (const auto& rec : r.trace) {
    ops += rec.ops;
    shed += rec.shed;
    timeouts += rec.timeouts;
    peak = std::max(peak, rec.queue_peak);
  }
  EXPECT_EQ(r.trace.size(), spec.steps);
  EXPECT_EQ(ops, r.serve_completed);
  EXPECT_EQ(shed, r.serve_shed);
  EXPECT_EQ(timeouts, r.serve_timeouts);
  EXPECT_EQ(peak, r.serve_peak_queue);
}

TEST(ServeEngine, AdmissionControlEngagesUnderRehashStorm) {
  // The storm construction (hotspot x batch churn x shallow queues x slow
  // service) must produce visible backpressure: nonzero shed, nonzero SLO
  // misses, and a queue driven to its admission bound.
  auto spec = serve_spec(19);
  spec.serve.clients = 24;
  spec.serve.queue_depth = 2;
  spec.serve.service_ticks = 4;
  spec.serve.op_timeout = 20;
  const auto r = run_backend("dex-worstcase", spec);
  EXPECT_GT(r.serve_shed, 0u);
  EXPECT_GT(r.serve_timeouts, 0u);
  EXPECT_GE(r.serve_peak_queue, spec.serve.queue_depth);
  // Still conserving, storm notwithstanding.
  EXPECT_EQ(r.serve_completed + r.serve_shed,
            spec.steps * spec.traffic.ops_per_step);
}

TEST(ServeEngine, DeeperQueuesShedLessAndCompleteMore) {
  auto spec = serve_spec(23);
  spec.serve.queue_depth = 1;
  const auto shallow = run_backend("lawsiu", spec);
  spec.serve.queue_depth = 64;
  const auto deep = run_backend("lawsiu", spec);
  EXPECT_GT(shallow.serve_shed, deep.serve_shed);
  EXPECT_LT(shallow.serve_completed, deep.serve_completed);
}

TEST(ServeEngine, SweepOutputByteIdenticalAcrossJobs) {
  sim::ExperimentPlan plan;
  plan.backends = {"dex-amortized", "flood", "lawsiu"};
  plan.scenarios = {"churn"};
  plan.populations = {32};
  plan.batch_sizes = {3};
  plan.seeds = {1, 2};
  plan.base = serve_spec(0);  // seed comes from the axis
  plan.base.steps = 20;

  const auto run_jobs = [&](std::size_t jobs) {
    std::ostringstream csv, json;
    sim::CsvTraceSink csv_sink(csv);
    sim::JsonSummarySink json_sink(json);
    sim::ExecutorOptions opts;
    opts.jobs = jobs;
    sim::Executor executor(opts);
    executor.add_sink(csv_sink);
    executor.add_sink(json_sink);
    executor.run(plan.expand());
    return std::make_pair(csv.str(), json.str());
  };
  const auto serial = run_jobs(1);
  const auto parallel = run_jobs(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_NE(serial.second.find("\"serve\": {"), std::string::npos);
}
