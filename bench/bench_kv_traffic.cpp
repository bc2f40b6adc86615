// E7 — serving key-value traffic under churn (§4.4.4 generalized to every
// backend). One declarative ExperimentPlan drives all six overlays through
// the same Zipf read/write mix while batch churn heals underneath: requests
// route through HealingOverlay::route (DEX: locally computable p-cycle
// paths; baselines: BFS on the live view), keys re-home by consistent
// hashing (AnchorHash) into the alive-node space, and the trial aggregates
// carry hops, stretch vs. BFS-optimal, failed lookups and rehash transfer —
// the stretch/latency comparison against Law–Siu and Xheal the paper's
// related-work section argues about. A second sweep pins the paper's
// original claim: DEX's per-op routing cost stays O(log n) across sizes.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "metrics/table.h"
#include "sim/experiment.h"
#include "sim/sinks.h"

using namespace dex;
using dex::bench::hops_per_op;
using dex::bench::stretch;

int main() {
  std::printf("=== E7: key-value traffic under churn ===\n\n");

  std::printf("-- all backends, zipf read/write mix over batch churn --\n\n");
  {
    sim::ExperimentPlan plan;
    plan.backends = sim::known_overlays();
    plan.scenarios = {"churn"};
    plan.populations = {64, 256};
    plan.batch_sizes = {4};
    plan.seeds = {7};
    plan.base.steps = 150;
    plan.base.traffic.workload = "zipf";
    plan.base.traffic.ops_per_step = 64;
    plan.base.traffic.keyspace = 2048;

    sim::AggregateSink agg;
    sim::ExecutorOptions opts;
    opts.jobs = 0;  // all cores; the output is identical regardless
    sim::Executor executor(opts);
    executor.add_sink(agg);
    executor.run(plan.expand());

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
        "\nShape check: failed ops (lookups *and* writes) are 0 everywhere\n"
        "(no acknowledged key is lost across rebuilds, no write is dropped);\n"
        "the baselines route at stretch 1 by\n"
        "construction (their request path *is* the BFS optimum, bought with\n"
        "a global view), while DEX pays a small constant stretch for routes\n"
        "computable from O(log n) local state.\n");
  }

  std::printf("\n-- DEX routing cost vs n (the O(log n) claim) --\n\n");
  {
    sim::ExperimentPlan plan;
    plan.backends = {"dex-worstcase"};
    plan.scenarios = {"churn"};
    plan.populations = {64, 256, 1024};
    plan.seeds = {11};
    plan.base.steps = 100;
    plan.base.traffic.workload = "zipf";
    plan.base.traffic.ops_per_step = 64;
    plan.base.traffic.keyspace = 2048;

    sim::AggregateSink agg;
    sim::ExecutorOptions opts;
    opts.jobs = 0;
    sim::Executor executor(opts);
    executor.add_sink(agg);
    executor.run(plan.expand());

    metrics::Table t({"n0", "hops/op", "log2 n0", "hops / log2 n0"});
    for (const auto& row : agg.rows()) {
      const double lg = std::log2(static_cast<double>(row.info.n0));
      t.add_row({std::to_string(row.info.n0),
                 metrics::Table::num(hops_per_op(row.result), 2),
                 metrics::Table::num(lg, 1),
                 metrics::Table::num(hops_per_op(row.result) / lg, 2)});
    }
    t.print();
    std::printf(
        "\nShape check: a 16x population growth moves hops/log2(n) only\n"
        "within a narrow band (sublinear in n, consistent with the O(log n)\n"
        "routing claim of §4.4.4, measured under live churn; the residual\n"
        "upward drift at these small sizes is the p-cycle diameter constant\n"
        "still settling, so expect near-flat, not exactly flat).\n");
  }
  return 0;
}
