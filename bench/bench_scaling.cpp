// E3 — Theorem 1: per-step recovery costs in worst-case mode grow like
// O(log n) rounds and messages with O(1) topology changes, per step, w.h.p.
// One ExperimentPlan sweeps n over powers of two (adaptive churn, 3000
// steps each) and the Executor runs the sizes concurrently; report p50/p99/
// max per step and a least-squares fit of the mean cost against log2 n —
// the fit's r² against log n tells us the growth law, and max topology
// changes must stay flat.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "sim/experiment.h"

using namespace dex;

int main() {
  std::printf(
      "=== E3 / Theorem 1: per-step cost vs network size (worst-case mode) "
      "===\n\n");

  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase"};
  plan.populations = {256, 512, 1024, 2048, 4096, 8192};
  plan.base.steps = 3000;
  plan.customize = [](sim::TrialSpec& t) { t.spec.seed = 7 * t.n0; };

  sim::ExecutorOptions opts;
  opts.jobs = 0;  // all cores; deterministic regardless
  sim::Executor executor(opts);
  sim::AggregateSink agg;
  executor.add_sink(agg);
  executor.run(plan.expand());
  const auto& rows = agg.rows();

  metrics::Table t({"n", "rounds p50", "rounds p99", "rounds max",
                    "msgs p50", "msgs p99", "msgs max", "topo p99",
                    "topo max", "type2 steps"});
  std::vector<double> log_n, mean_rounds, mean_msgs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t n0 = plan.populations[i];
    const auto& res = rows[i].result;
    const auto& r = res.rounds;
    const auto& m = res.messages;
    const auto& c = res.topology;
    t.add_row({std::to_string(n0), metrics::Table::num(r.p50, 0),
               metrics::Table::num(r.p99, 0), metrics::Table::num(r.max, 0),
               metrics::Table::num(m.p50, 0), metrics::Table::num(m.p99, 0),
               metrics::Table::num(m.max, 0), metrics::Table::num(c.p99, 0),
               metrics::Table::num(c.max, 0),
               std::to_string(res.type2_steps)});
    log_n.push_back(std::log2(static_cast<double>(n0)));
    mean_rounds.push_back(r.mean);
    mean_msgs.push_back(m.mean);
  }
  t.print();

  const auto fr = metrics::fit_line(log_n, mean_rounds);
  const auto fm = metrics::fit_line(log_n, mean_msgs);
  std::printf(
      "\nLeast-squares fit of mean cost against log2(n):\n"
      "  rounds   ~= %.2f + %.2f*log2(n)   (r^2 = %.3f)\n"
      "  messages ~= %.2f + %.2f*log2(n)   (r^2 = %.3f)\n",
      fr.intercept, fr.slope, fr.r2, fm.intercept, fm.slope, fm.r2);
  std::printf(
      "\nShape check: r^2 near 1 against log n (Theorem 1's O(log n));\n"
      "topology-change percentiles flat across the sweep (O(1)).\n");
  return 0;
}
