// E12 — the serving hot path at scale: traffic-on sweeps at 10k nodes up
// to one million, the population range where the paper's O(log n) routing
// claim is actually interesting and where per-step full view rebuilds (an
// O(n + m) snapshot + CSR per churn step) stopped being drivable. Three
// sections:
//
//  * a deterministic all-backends sweep (populations up to 100k) whose
//    per-trial summaries stream into BENCH_scale.json — the cross-commit
//    perf-trajectory artifact the CI scale-smoke job uploads
//    (deterministic: no wall-clock inside);
//  * wall-clock phase attribution (single trials): churn healing vs.
//    incremental view maintenance vs. traffic serving, µs per step and µs
//    per op, appended to BENCH_scale.json as "kind":"phase_timing" JSONL
//    rows — the input to tools/perf_guard.py, CI's 2x-regression gate.
//    Every row carries an "engine" field; a second pass times the same
//    trials through the discrete-event core (sim/event/) in its racing
//    regime so the asynchronous hot path is gated too;
//  * the frontier: n > 100k up to max_n (default one million) on the two
//    backends whose maintenance cost is genuinely per-churn-delta
//    (dex-amortized, lawsiu), traffic on — the run the incremental CSR
//    path exists for.
//
// Usage: bench_scale [max_n] [json_path]
//   max_n     largest population to sweep (default 1000000; CI passes a
//             reduced value to fit its wall-clock budget)
//   json_path where the JSONL summaries go (default BENCH_scale.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "metrics/table.h"
#include "sim/experiment.h"
#include "sim/sinks.h"

using namespace dex;
using Clock = std::chrono::steady_clock;

using dex::bench::hops_per_op;
using dex::bench::stretch;

namespace {

sim::ScenarioSpec traffic_spec(std::size_t steps) {
  sim::ScenarioSpec spec;
  spec.steps = steps;
  spec.batch_size = 8;
  spec.record_trace = false;
  spec.traffic.workload = "zipf";
  spec.traffic.ops_per_step = 64;
  spec.traffic.keyspace = 8192;
  return spec;
}

/// The event-engine configuration the timed "engine":"event" rows run under:
/// the racing regime (uniform:1,4 link latency, 5% loss) that E13 sweeps.
sim::EventSpec event_spec() {
  sim::EventSpec ev;
  ev.enabled = true;
  ev.latency = *sim::LatencyModel::parse("uniform:1,4");
  ev.loss_rate = 0.05;
  return ev;
}

/// One timed single trial with phase attribution on; returns the result and
/// fills wall_ms.
sim::ScenarioResult timed_trial(const char* backend, std::size_t n,
                                std::size_t steps, unsigned intra_jobs,
                                double& wall_ms, bool event = false) {
  auto overlay = sim::make_overlay(backend, n, sim::overlay_seed(1));
  if (intra_jobs > 1) overlay->set_intra_jobs(intra_jobs);
  auto strategy = sim::make_strategy("churn");
  auto spec = traffic_spec(steps);
  spec.seed = 1;
  spec.time_phases = true;
  if (event) spec.event = event_spec();
  sim::ScenarioRunner runner(*overlay, *strategy, spec);
  const auto t0 = Clock::now();
  auto res = runner.run();
  wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
  return res;
}

/// Appends one "kind":"phase_timing" JSONL row — the record
/// tools/perf_guard.py diffs against its checked-in baseline. Wall-clock
/// data stays out of the deterministic summaries; it gets its own kind.
void emit_phase_row(std::ofstream& json, const char* backend, std::size_t n,
                    std::size_t steps, const sim::ScenarioResult& res,
                    double wall_ms, const char* engine = "sync") {
  const double s = static_cast<double>(steps);
  const double us_per_op =
      res.total_ops ? 1000.0 * wall_ms / static_cast<double>(res.total_ops)
                    : 0.0;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"kind\": \"phase_timing\", \"backend\": \"%s\", "
                "\"engine\": \"%s\", "
                "\"n0\": %zu, \"steps\": %zu, \"wall_ms\": %.1f, "
                "\"churn_us_per_step\": %.1f, \"view_us_per_step\": %.1f, "
                "\"traffic_us_per_step\": %.1f, \"us_per_op\": %.2f}\n",
                backend, engine, n, steps, wall_ms, res.churn_us / s,
                res.view_us / s, res.traffic_us / s, us_per_op);
  json << buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t max_n =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 1000000;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_scale.json";
  if (max_n < 2000) {
    std::fprintf(stderr, "bench_scale: max_n must be >= 2000\n");
    return 2;
  }

  std::printf("=== E12: the serving hot path, 10k nodes to 1M ===\n\n");

  // The all-backends sweep stops at 100k — the flooding/xheal/randomflip
  // rows cost O(n) (or worse) per step by construction and say nothing new
  // beyond that size. The frontier sizes run on the per-delta backends only.
  constexpr std::size_t kSixBackendCap = 100000;
  std::vector<std::size_t> pops;
  for (const std::size_t n : {std::size_t{2000}, std::size_t{10000},
                              std::size_t{31623}, std::size_t{100000}}) {
    if (n <= max_n && n <= kSixBackendCap) pops.push_back(n);
  }
  if (max_n <= kSixBackendCap && pops.back() != max_n) pops.push_back(max_n);
  std::vector<std::size_t> frontier;
  for (const std::size_t n : {std::size_t{316228}, std::size_t{1000000}}) {
    if (n <= max_n && n > kSixBackendCap) frontier.push_back(n);
  }
  if (max_n > kSixBackendCap &&
      (frontier.empty() || frontier.back() != max_n)) {
    frontier.push_back(max_n);
  }

  std::printf("-- all six backends, zipf traffic over batch churn --\n\n");
  sim::AggregateSink agg;
  {
    sim::ExperimentPlan plan;
    plan.backends = sim::known_overlays();
    plan.scenarios = {"churn"};
    plan.populations = pops;
    plan.seeds = {1};
    plan.base = traffic_spec(/*steps=*/40);

    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    sim::JsonSummarySink json_sink(json);
    sim::ExecutorOptions opts;
    opts.jobs = 0;  // all cores; the output is identical regardless
    sim::Executor executor(opts);
    executor.add_sink(agg);
    executor.add_sink(json_sink);
    const auto t0 = Clock::now();
    executor.run(plan.expand());
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

    metrics::Table t({"backend", "n0", "ops", "hops/op", "stretch", "failed",
                      "moved keys", "rehash msgs"});
    for (const auto& row : agg.rows()) {
      const auto& r = row.result;
      t.add_row({r.backend, std::to_string(row.info.n0),
                 std::to_string(r.total_ops),
                 metrics::Table::num(hops_per_op(r), 2),
                 metrics::Table::num(stretch(r), 2),
                 std::to_string(r.total_failed_lookups +
                                r.total_failed_writes),
                 std::to_string(r.total_moved_keys),
                 std::to_string(r.total_rehash_messages)});
    }
    t.print();
    std::printf(
        "\nSweep wall clock: %.1fs for %zu trials (summaries -> %s).\n"
        "Shape check: failed ops stay 0 on every backend at every size (the\n"
        "zero-loss contract scales); DEX stretch holds its small constant\n"
        "while the baselines route at 1 by construction.\n",
        wall, agg.rows().size(), json_path.c_str());
  }

  std::printf(
      "\n-- phase attribution (single trials, wall clock per phase) --\n\n");
  {
    std::ofstream json(json_path, std::ios::app);
    metrics::Table t({"backend", "n0", "steps", "wall ms", "churn us/st",
                      "view us/st", "traffic us/st", "us/op"});
    for (const char* backend : {"dex-worstcase", "dex-amortized", "lawsiu"}) {
      for (const std::size_t n : pops) {
        if (n < 10000) continue;  // the small sizes say nothing about scale
        constexpr std::size_t kSteps = 20;
        double ms = 0.0;
        const auto res = timed_trial(backend, n, kSteps, /*intra_jobs=*/1, ms);
        emit_phase_row(json, backend, n, kSteps, res, ms);
        t.add_row({backend, std::to_string(n), std::to_string(kSteps),
                   metrics::Table::num(ms, 0),
                   metrics::Table::num(res.churn_us / kSteps, 0),
                   metrics::Table::num(res.view_us / kSteps, 0),
                   metrics::Table::num(res.traffic_us / kSteps, 0),
                   metrics::Table::num(
                       1000.0 * ms / static_cast<double>(res.total_ops), 1)});
      }
    }
    t.print();
    std::printf(
        "\nShape check: the view column is the incremental-maintenance bill —\n"
        "journal drain + CSR patch, proportional to the churn delta, not to n\n"
        "(it used to be a full snapshot + CSR rebuild per step). These rows\n"
        "also land in %s as \"kind\":\"phase_timing\" for tools/perf_guard.py,\n"
        "the CI 2x-regression gate.\n",
        json_path.c_str());
  }

  std::printf(
      "\n-- event engine: racing regime (uniform:1,4 latency, 5%% loss) --\n\n");
  {
    std::ofstream json(json_path, std::ios::app);
    metrics::Table t({"backend", "n0", "steps", "wall ms", "dropped",
                      "max in-flight", "us/op"});
    for (const char* backend : {"dex-amortized", "lawsiu"}) {
      for (const std::size_t n : pops) {
        if (n < 10000) continue;
        constexpr std::size_t kSteps = 20;
        double ms = 0.0;
        const auto res =
            timed_trial(backend, n, kSteps, /*intra_jobs=*/1, ms,
                        /*event=*/true);
        emit_phase_row(json, backend, n, kSteps, res, ms, "event");
        t.add_row({backend, std::to_string(n), std::to_string(kSteps),
                   metrics::Table::num(ms, 0),
                   std::to_string(res.total_dropped),
                   std::to_string(res.max_in_flight),
                   metrics::Table::num(
                       1000.0 * ms / static_cast<double>(res.total_ops), 1)});
      }
    }
    t.print();
    std::printf(
        "\nShape check: the event engine's bill is heap bookkeeping plus\n"
        "retransmits — us/op stays within a small constant of the sync rows\n"
        "above, not a new asymptotic class. These rows land in %s with\n"
        "\"engine\": \"event\" so tools/perf_guard.py gates the asynchronous\n"
        "hot path alongside the lockstep one.\n",
        json_path.c_str());
  }

  if (!frontier.empty()) {
    std::printf("\n-- the frontier: n > 100k, per-delta backends only --\n\n");
    std::ofstream json(json_path, std::ios::app);
    const unsigned intra =
        std::max(1u, std::thread::hardware_concurrency());
    metrics::Table t({"backend", "n0", "steps", "wall ms", "churn us/st",
                      "view us/st", "traffic us/st", "us/op"});
    for (const char* backend : {"dex-amortized", "lawsiu"}) {
      for (const std::size_t n : frontier) {
        constexpr std::size_t kSteps = 10;
        double ms = 0.0;
        const auto res = timed_trial(backend, n, kSteps, intra, ms);
        emit_phase_row(json, backend, n, kSteps, res, ms);
        t.add_row({backend, std::to_string(n), std::to_string(kSteps),
                   metrics::Table::num(ms, 0),
                   metrics::Table::num(res.churn_us / kSteps, 0),
                   metrics::Table::num(res.view_us / kSteps, 0),
                   metrics::Table::num(res.traffic_us / kSteps, 0),
                   metrics::Table::num(
                       1000.0 * ms / static_cast<double>(res.total_ops), 1)});
      }
    }
    t.print();
    std::printf(
        "\nShape check: one n=1M trial with zipf traffic completes in minutes\n"
        "— per-step cost is the churn delta (view patch) plus the served ops\n"
        "(shared BFS frontiers), never an O(n + m) rebuild. DEX additionally\n"
        "fans its walk-port enumeration across %u threads (byte-identical\n"
        "traces; see --trial-jobs).\n",
        intra);
  }
  return 0;
}
