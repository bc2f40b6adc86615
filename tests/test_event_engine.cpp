// The event-driven simulation core (sim/event/): deterministic heap
// tie-breaking, RNG stream separation (latency/loss/straggler knobs never
// perturb the churn/traffic draws), exact straggler latency arithmetic, the
// healing-racing-churn regime's in_flight/dropped accounting, the strategy
// contract (a dead victim aborts unless another step raced it), and the
// jobs-1-vs-8 byte-identity contract with the event engine selected. The
// lockstep schedule itself (the default regime) is pinned byte for byte by
// tests/test_lockstep_golden.sh.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event/engine.h"
#include "sim/experiment.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"
#include "support/prng.h"

using namespace dex;

namespace {

sim::ScenarioSpec traffic_spec(std::uint64_t seed) {
  sim::ScenarioSpec spec;
  spec.seed = seed;
  spec.steps = 40;
  spec.batch_size = 3;
  spec.burst_every = 4;  // exercise both the single-event and batch paths
  spec.gap_every = 8;
  spec.measure_degree = true;
  spec.traffic.workload = "zipf";
  spec.traffic.ops_per_step = 12;
  spec.traffic.keyspace = 256;
  return spec;
}

sim::ScenarioResult run_backend(const char* backend,
                                const sim::ScenarioSpec& spec) {
  auto overlay = sim::make_overlay(backend, 48, spec.seed ^ 0x5eedULL);
  auto strategy = sim::make_strategy("churn");
  sim::ScenarioRunner runner(*overlay, *strategy, spec);
  return runner.run();
}

}  // namespace

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsFifoWithinEqualTimestamps) {
  // Same timestamp for many pushes: pops must come back in push order,
  // whatever the heap's internal layout did.
  sim::EventQueue q;
  for (std::uint32_t i = 0; i < 64; ++i) q.push(7, i, i);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto it = q.pop();
    EXPECT_EQ(it.time, 7u);
    EXPECT_EQ(it.kind, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceOrderUnderRandomizedInsertions) {
  // Model check against a std::set ordered by (time, seq): randomized
  // interleaving of pushes and pops, every pop must equal the reference
  // minimum. Duplicated timestamps are the common case by construction.
  support::Rng rng(0xabcdef12u);
  sim::EventQueue q;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ref;  // (time, seq)
  std::uint64_t next_seq = 0;
  for (int round = 0; round < 2000; ++round) {
    const bool push = ref.empty() || rng.chance(0.6);
    if (push) {
      const std::uint64_t time = rng.below(16);
      q.push(time, 0, 0);
      ref.emplace(time, next_seq++);
    } else {
      const auto it = q.pop();
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      EXPECT_EQ(it.time, expect.first);
      EXPECT_EQ(it.seq, expect.second);
    }
  }
  while (!ref.empty()) {
    const auto it = q.pop();
    EXPECT_EQ(it.time, ref.begin()->first);
    EXPECT_EQ(it.seq, ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------- stream separation

TEST(EventEngine, StragglerMembershipConsumesNoSharedRandomness) {
  // Straggler injection multiplies latency samples; at fixed:0 the product
  // stays 0, and membership is a pure hash — so even an aggressive
  // straggler config must leave the churn and traffic draws untouched.
  // This is the stream-separation pin: any leak of event-side decisions
  // into the adversary or traffic RNG shows up as a byte diff here.
  const sim::ScenarioSpec spec = traffic_spec(29);
  sim::ScenarioSpec event_spec = spec;
  event_spec.event.enabled = true;
  event_spec.event.straggler_fraction = 0.5;
  event_spec.event.straggler_factor = 7;
  const auto sync_result = run_backend("dex-amortized", spec);
  const auto event_result = run_backend("dex-amortized", event_spec);
  EXPECT_EQ(sim::trace_csv(sync_result), sim::trace_csv(event_result));
}

// ------------------------------------------------- latency arithmetic

TEST(EventEngine, FixedLatencyAndStragglerFactorSetExactSettleLag) {
  // All-straggler network, fixed:2 links, factor 3: every constituent
  // delivery takes 6 ticks and settlement pays one more unmultiplied draw
  // (+2), so every step finalizes exactly 8 ticks after its injection.
  sim::ScenarioSpec spec;
  spec.seed = 3;
  spec.steps = 50;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("fixed:2");
  spec.event.straggler_fraction = 1.0;
  spec.event.straggler_factor = 3;
  const auto result = run_backend("lawsiu", spec);
  ASSERT_EQ(result.trace.size(), spec.steps);
  bool racing = false;
  for (const auto& rec : result.trace) {
    EXPECT_EQ(rec.vtime, rec.step + 8);
    racing = racing || rec.in_flight > 0;
  }
  // Six injections are airborne before the first batch applies — the
  // healing-racing-churn regime is actually exercised, not just allowed.
  EXPECT_TRUE(racing);
}

// ---------------------------------------------------- strategy contract

namespace {

/// Deletes the same node every step: alive the first time, dead after —
/// a strategy bug the runner must catch rather than absorb.
class RepeatVictim : public adversary::Strategy {
 public:
  adversary::ChurnAction next(const adversary::AdversaryView& /*view*/,
                              support::Rng& /*rng*/, std::size_t /*min_n*/,
                              std::size_t /*max_n*/) override {
    adversary::ChurnAction a;
    a.insert = false;
    a.target = 5;
    return a;
  }
};

sim::ScenarioResult run_repeat_victim(const sim::ScenarioSpec& spec) {
  auto overlay = sim::make_overlay("lawsiu", 32, 1);
  RepeatVictim strategy;
  sim::ScenarioRunner runner(*overlay, strategy, spec);
  return runner.run();
}

}  // namespace

TEST(EventEngineDeathTest, DeadVictimAbortsUnderLockstep) {
  // Nothing races a lockstep step, so the apply-time filter must not
  // swallow the dead victim as a "racing" drop.
  sim::ScenarioSpec spec;
  spec.steps = 3;
  EXPECT_DEATH(run_repeat_victim(spec), "strategy chose a dead victim");
}

TEST(EventEngineDeathTest, DeadVictimAbortsWhenLatencyIsBelowThePeriod) {
  // fixed:1 links, a batch every 4 ticks: each step applies before the next
  // is injected, so a dead victim is still the strategy's fault.
  sim::ScenarioSpec spec;
  spec.steps = 3;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("fixed:1");
  spec.event.period = 4;
  EXPECT_DEATH(run_repeat_victim(spec), "strategy chose a dead victim");
}

TEST(EventEngine, RacedDeadVictimIsADroppedDelivery) {
  // fixed:3 links, a batch every tick: steps 1 and 2 are injected before
  // step 0 deletes the victim, so their copies of it lost a genuine race
  // and are filtered as dropped deliveries, not aborted on.
  sim::ScenarioSpec spec;
  spec.steps = 3;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("fixed:3");
  const auto result = run_repeat_victim(spec);
  EXPECT_EQ(result.total_deletes, 1u);
  EXPECT_EQ(result.total_dropped, 2u);
}

TEST(LatencyModel, ParsesAndRoundTrips) {
  const auto fixed = sim::LatencyModel::parse("fixed:3");
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(fixed->to_string(), "fixed:3");
  EXPECT_DOUBLE_EQ(fixed->mean(), 3.0);
  const auto uniform = sim::LatencyModel::parse("uniform:1,4");
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->to_string(), "uniform:1,4");
  EXPECT_DOUBLE_EQ(uniform->mean(), 2.5);
  const auto exp = sim::LatencyModel::parse("exp:8");
  ASSERT_TRUE(exp.has_value());
  EXPECT_EQ(exp->to_string(), "exp:8");
  for (const char* bad : {"", "fixed", "fixed:", "fixed:-1", "fixed:x",
                          "uniform:4,1", "uniform:1", "gauss:3", ":5",
                          "fixed:99999999999999999999"}) {
    EXPECT_FALSE(sim::LatencyModel::parse(bad).has_value()) << bad;
  }
  // Samples respect the distribution's support.
  support::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const auto u = uniform->sample(rng);
    EXPECT_GE(u, 1u);
    EXPECT_LE(u, 4u);
    EXPECT_EQ(fixed->sample(rng), 3u);
  }
}

// ------------------------------------------------ healing racing churn

TEST(EventEngine, RacingChurnWithLossReportsInFlightAndDrops) {
  sim::ScenarioSpec spec = traffic_spec(7);
  spec.steps = 60;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("uniform:5,9");
  spec.event.loss_rate = 0.1;
  for (const char* backend : {"dex-amortized", "lawsiu"}) {
    SCOPED_TRACE(backend);
    const auto result = run_backend(backend, spec);
    ASSERT_EQ(result.trace.size(), spec.steps);
    // Every step finalizes exactly once, whatever order they settled in.
    std::vector<bool> seen(spec.steps, false);
    bool racing = false;
    std::uint64_t dropped = 0;
    for (const auto& rec : result.trace) {
      ASSERT_LT(rec.step, spec.steps);
      EXPECT_FALSE(seen[rec.step]);
      seen[rec.step] = true;
      EXPECT_GE(rec.vtime, rec.step);  // settlement never precedes injection
      racing = racing || rec.in_flight > 0;
      dropped += rec.dropped;
    }
    EXPECT_TRUE(racing);
    EXPECT_GT(result.total_dropped, 0u);
    EXPECT_EQ(result.total_dropped, dropped);
    EXPECT_GT(result.max_in_flight, 0u);
    // The summary archives the regime and its outcomes.
    const std::string json = sim::summary_json(result);
    EXPECT_NE(json.find("\"engine\": \"event\""), std::string::npos);
    EXPECT_NE(json.find("\"latency\": \"uniform:5,9\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_deliveries\""), std::string::npos);
    EXPECT_NE(json.find("\"max_in_flight\""), std::string::npos);
    // Same spec, same bytes: the asynchronous schedule is deterministic.
    const auto again = run_backend(backend, spec);
    EXPECT_EQ(sim::trace_csv(result), sim::trace_csv(again));
    EXPECT_EQ(json, sim::summary_json(again));
  }
}

// -------------------------------------------------- executor integration

TEST(EventEngine, SweepOutputByteIdenticalAcrossJobs) {
  sim::ExperimentPlan plan;
  plan.backends = {"dex-amortized", "flood", "lawsiu", "xheal"};
  plan.scenarios = {"churn"};
  plan.populations = {32};
  plan.batch_sizes = {3};
  plan.seeds = {1, 2};
  plan.base.steps = 30;
  plan.base.traffic.workload = "zipf";
  plan.base.traffic.ops_per_step = 8;
  plan.base.traffic.keyspace = 128;
  plan.base.event.enabled = true;
  plan.base.event.latency = *sim::LatencyModel::parse("uniform:1,4");
  plan.base.event.loss_rate = 0.05;

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
  EXPECT_NE(serial.second.find("\"engine\": \"event\""), std::string::npos);
}
