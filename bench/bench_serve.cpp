// E14 — saturation curves for the concurrent serving front-end
// (src/serve/): closed-loop clients driving every backend through the
// event engine's bounded per-home queues, sweeping the ops-in-flight
// ceiling (--clients) as the offered-load axis. Three sections:
//
//  * per-backend saturation curves: clients in {1, 4, 16, 64} x all six
//    backends, deterministic (no wall clock inside), emitted as
//    "kind":"serve_curve" JSONL rows — offered load vs throughput plus
//    p50/p99/p999 virtual-tick latency. Shape checks gate: zero lost
//    acknowledged keys everywhere and conservation (completed + shed ==
//    steps x ops_per_step);
//  * a rehash-storm cell: hotspot traffic over batch churn into shallow
//    queues with a tight SLO — admission control must visibly engage
//    (nonzero shed), rehash jobs must backpressure clients (nonzero
//    timeouts against the storm-free cell's latency);
//  * wall-clock "kind":"phase_timing" rows ("engine": "serve") for
//    tools/perf_guard.py, so the serving event path is regression-gated
//    alongside the sync and event hot paths.
//
// Usage: bench_serve [n0] [json_path]
//   n0        population for the timed phase rows (default 10000; the
//             saturation curves run at min(n0, 2000) so the O(n)-per-step
//             baselines stay cheap)
//   json_path where the JSONL rows go (default BENCH_serve.json)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "metrics/table.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "support/parse.h"

using namespace dex;
using Clock = std::chrono::steady_clock;

namespace {

/// The saturation cell: uniform traffic, comfortable queues, fixed links —
/// the only moving axis is the client count.
sim::ScenarioSpec serve_spec(std::size_t steps, std::size_t clients) {
  sim::ScenarioSpec spec;
  spec.steps = steps;
  spec.record_trace = false;
  spec.seed = 1;
  spec.traffic.workload = "uniform";
  spec.traffic.ops_per_step = 64;
  spec.traffic.keyspace = 4096;
  spec.event.enabled = true;
  spec.event.latency = *sim::LatencyModel::parse("fixed:2");
  spec.serve.enabled = true;
  spec.serve.clients = clients;
  spec.serve.queue_depth = 16;
  spec.serve.service_ticks = 2;
  return spec;
}

/// The storm cell: hotspot traffic over batch churn, shallow queues, slow
/// service, tight SLO — built so rehash jobs and admission control are
/// *visible* in the counters, not hypothetical.
sim::ScenarioSpec storm_spec(std::size_t steps) {
  sim::ScenarioSpec spec = serve_spec(steps, /*clients=*/32);
  spec.batch_size = 8;
  spec.traffic.workload = "hotspot";
  spec.serve.queue_depth = 4;
  spec.serve.service_ticks = 4;
  spec.serve.op_timeout = 16;
  return spec;
}

sim::ScenarioResult run_trial(const std::string& backend, std::size_t n,
                              const sim::ScenarioSpec& spec) {
  auto overlay = sim::make_overlay(backend, n, sim::overlay_seed(spec.seed));
  auto strategy = sim::make_strategy("churn");
  sim::ScenarioRunner runner(*overlay, *strategy, spec);
  return runner.run();
}

void emit_curve_row(std::ofstream& json, const char* cell,
                    const sim::ScenarioResult& r) {
  const auto& sv = r.serve_latency;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"kind\": \"serve_curve\", \"cell\": \"%s\", \"backend\": \"%s\", "
      "\"clients\": %zu, \"queue_depth\": %zu, \"completed\": %zu, "
      "\"shed\": %zu, \"timeouts\": %zu, \"peak_queue\": %zu, "
      "\"makespan\": %llu, \"throughput\": %.4f, \"lat_p50\": %llu, "
      "\"lat_p99\": %llu, \"lat_p999\": %llu, \"lat_max\": %llu}\n",
      cell, r.backend.c_str(), r.spec.serve.clients, r.spec.serve.queue_depth,
      r.serve_completed, r.serve_shed, r.serve_timeouts, r.serve_peak_queue,
      static_cast<unsigned long long>(r.serve_makespan),
      r.serve_makespan
          ? static_cast<double>(r.serve_completed) /
                static_cast<double>(r.serve_makespan)
          : 0.0,
      static_cast<unsigned long long>(sv.quantile(0.50)),
      static_cast<unsigned long long>(sv.quantile(0.99)),
      static_cast<unsigned long long>(sv.quantile(0.999)),
      static_cast<unsigned long long>(sv.max()));
  json << buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n0 = dex::support::positional_u64(argc, argv, 1, 10000);
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_serve.json";
  if (n0 < 100) {
    std::fprintf(stderr, "bench_serve: n0 must be >= 100\n");
    return 2;
  }
  const std::size_t curve_n = std::min<std::size_t>(n0, 2000);
  constexpr std::size_t kSteps = 30;
  bool ok = true;

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }

  std::printf("=== E14: serving front-end saturation curves ===\n\n");
  std::printf("-- offered load (clients) vs throughput, n=%zu --\n\n",
              curve_n);
  {
    metrics::Table t({"backend", "clients", "completed", "shed", "thpt",
                      "p50", "p99", "p999", "peak q"});
    for (const auto& backend : sim::known_overlays()) {
      for (const std::size_t clients :
           {std::size_t{1}, std::size_t{4}, std::size_t{16},
            std::size_t{64}}) {
        const auto spec = serve_spec(kSteps, clients);
        const auto r = run_trial(backend, curve_n, spec);
        emit_curve_row(json, "saturation", r);
        const std::size_t offered = kSteps * spec.traffic.ops_per_step;
        if (r.serve_completed + r.serve_shed != offered) {
          std::fprintf(stderr,
                       "FAIL %s clients=%zu: completed %zu + shed %zu != "
                       "offered %zu\n",
                       backend.c_str(), clients, r.serve_completed,
                       r.serve_shed, offered);
          ok = false;
        }
        if (r.total_failed_lookups + r.total_failed_writes != 0) {
          std::fprintf(stderr, "FAIL %s clients=%zu: %zu lost acknowledged "
                       "ops\n", backend.c_str(), clients,
                       r.total_failed_lookups + r.total_failed_writes);
          ok = false;
        }
        const auto& lat = r.serve_latency;
        t.add_row({backend, std::to_string(clients),
                   std::to_string(r.serve_completed),
                   std::to_string(r.serve_shed),
                   metrics::Table::num(
                       r.serve_makespan
                           ? static_cast<double>(r.serve_completed) /
                                 static_cast<double>(r.serve_makespan)
                           : 0.0,
                       3),
                   std::to_string(lat.quantile(0.50)),
                   std::to_string(lat.quantile(0.99)),
                   std::to_string(lat.quantile(0.999)),
                   std::to_string(r.serve_peak_queue)});
      }
    }
    t.print();
    std::printf(
        "\nShape check: every cell conserves its op budget (completed + shed\n"
        "== offered) and loses zero acknowledged keys; throughput climbs\n"
        "with clients until queueing flattens it — the saturation knee the\n"
        "curves exist to locate.\n");
  }

  std::printf("\n-- rehash-storm cell: hotspot x batch churn x shallow "
              "queues --\n\n");
  {
    metrics::Table t({"backend", "completed", "shed", "timeouts", "p99",
                      "p999", "peak q"});
    for (const char* backend : {"dex-worstcase", "dex-amortized", "lawsiu"}) {
      const auto r = run_trial(backend, curve_n, storm_spec(kSteps));
      emit_curve_row(json, "storm", r);
      if (r.serve_shed == 0) {
        std::fprintf(stderr,
                     "FAIL %s: storm cell shed nothing — admission control "
                     "never engaged\n", backend);
        ok = false;
      }
      if (r.serve_timeouts == 0) {
        std::fprintf(stderr,
                     "FAIL %s: storm cell missed no SLO — queueing delay "
                     "never materialized\n", backend);
        ok = false;
      }
      if (r.total_failed_lookups + r.total_failed_writes != 0) {
        std::fprintf(stderr, "FAIL %s: storm cell lost acknowledged ops\n",
                     backend);
        ok = false;
      }
      const auto& lat = r.serve_latency;
      t.add_row({backend, std::to_string(r.serve_completed),
                 std::to_string(r.serve_shed),
                 std::to_string(r.serve_timeouts),
                 std::to_string(lat.quantile(0.99)),
                 std::to_string(lat.quantile(0.999)),
                 std::to_string(r.serve_peak_queue)});
    }
    t.print();
    std::printf(
        "\nShape check: churn-displaced keys become rehash jobs occupying\n"
        "the same stations clients queue at, so the storm shows up as shed\n"
        "requests and SLO misses — never as lost acknowledged keys.\n");
  }

  std::printf("\n-- phase timing (wall clock) for the perf guard, n=%zu "
              "--\n\n", n0);
  {
    metrics::Table t({"backend", "n0", "steps", "wall ms", "us/op"});
    for (const char* backend : {"dex-worstcase", "dex-amortized", "lawsiu"}) {
      constexpr std::size_t kTimedSteps = 20;
      auto spec = serve_spec(kTimedSteps, /*clients=*/16);
      spec.time_phases = true;
      auto overlay =
          sim::make_overlay(backend, n0, sim::overlay_seed(spec.seed));
      auto strategy = sim::make_strategy("churn");
      sim::ScenarioRunner runner(*overlay, *strategy, spec);
      const auto t0 = Clock::now();
      const auto res = runner.run();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      const double us_per_op =
          res.total_ops
              ? 1000.0 * ms / static_cast<double>(res.total_ops)
              : 0.0;
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"kind\": \"phase_timing\", \"backend\": \"%s\", "
                    "\"engine\": \"serve\", "
                    "\"n0\": %zu, \"steps\": %zu, \"wall_ms\": %.1f, "
                    "\"churn_us_per_step\": %.1f, \"view_us_per_step\": "
                    "%.1f, \"traffic_us_per_step\": %.1f, "
                    "\"us_per_op\": %.2f}\n",
                    backend, n0, kTimedSteps, ms,
                    res.churn_us / static_cast<double>(kTimedSteps),
                    res.view_us / static_cast<double>(kTimedSteps),
                    res.traffic_us / static_cast<double>(kTimedSteps),
                    us_per_op);
      json << buf;
      t.add_row({backend, std::to_string(n0), std::to_string(kTimedSteps),
                 metrics::Table::num(ms, 0),
                 metrics::Table::num(us_per_op, 1)});
    }
    t.print();
    std::printf(
        "\nThese rows land in %s as \"kind\":\"phase_timing\" with\n"
        "\"engine\": \"serve\" — tools/perf_guard.py gates them against\n"
        "tools/perf_baseline.json at 2x, so queueing bookkeeping growing a\n"
        "per-op O(n) term fails CI instead of shipping.\n",
        json_path.c_str());
  }

  if (!ok) {
    std::fprintf(stderr, "\nbench_serve: shape checks FAILED\n");
    return 1;
  }
  std::printf("\nAll shape checks passed.\n");
  return 0;
}
