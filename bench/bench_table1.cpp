// E1 — Table 1 of the paper: comparison of distributed expander
// constructions. The DEX, Law–Siu and flooding rows are *measured* on this
// machine (identical adaptive churn, several network sizes); the skip-graph
// and SKIP+ rows reproduce the paper's analytic citations (no OSS artifacts
// exist to measure — marked).
//
// Every measured row is one trial of a single declarative ExperimentPlan
// (backends x populations), run concurrently by the Executor — zero
// backend-specific driver code, and the sweep uses every core while staying
// byte-deterministic.
//
// Paper's Table 1 row for DEX:   deterministic expansion, adaptive
// adversary, O(1) max degree, O(log n) recovery, O(log n) messages,
// O(1) topology changes. The measured numbers below must show: constant max
// degree across sizes, per-step rounds/messages growing like log n, and
// constant topology changes — against Law–Siu's O(d) degree and cheap-but-
// probabilistic maintenance and flooding's Θ(n) messages.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "metrics/table.h"
#include "sim/experiment.h"

using namespace dex;

namespace {

const char* display_name(const std::string& backend) {
  if (backend == "dex-worstcase") return "DEX (this work)";
  if (backend == "lawsiu") return "Law-Siu [18]";
  return "Flooding (Sec. 3)";
}

const char* expansion_kind(const std::string& backend) {
  return backend == "lawsiu" ? "prob (oblivious)" : "deterministic";
}

const char* adversary_kind(const std::string& backend) {
  return backend == "lawsiu" ? "oblivious" : "adaptive";
}

}  // namespace

int main() {
  std::printf(
      "=== E1 / Table 1: comparison of distributed expander constructions "
      "===\n\nMeasured rows (adaptive 50/50 churn, per-step p99 costs):\n\n");

  sim::ExperimentPlan plan;
  plan.backends = {"dex-worstcase", "lawsiu", "flood"};
  plan.populations = {256, 1024, 4096};
  plan.base.measure_degree = true;
  plan.customize = [](sim::TrialSpec& t) {
    // Cost model sized to the construction: flooding pays Θ(n) per step, so
    // its row keeps the same workload shape at a capped step count.
    const std::size_t steps = 4 * t.n0;
    t.spec.steps =
        t.backend == "flood" ? std::min<std::size_t>(steps, 512) : steps;
    t.spec.gap_every = std::max<std::size_t>(t.spec.steps / 8, 1);
    // Distinct adversary stream per grid point (the classic E1 seeding).
    t.spec.seed = t.n0 + (t.backend == "lawsiu" ? 1 : 0) +
                  (t.backend == "flood" ? 2 : 0);
  };

  sim::ExecutorOptions opts;
  opts.jobs = 0;  // all cores; results are byte-deterministic regardless
  sim::Executor executor(opts);
  sim::AggregateSink agg;
  executor.add_sink(agg);
  executor.run(plan.expand());
  const auto& rows = agg.rows();

  metrics::Table t({"algorithm", "n", "expansion", "adversary", "max degree",
                    "recovery rounds p99", "messages p99", "topo changes p99",
                    "min gap"});
  // Trials expand backend-major; present the classic grouping (all
  // algorithms per n) by walking populations in the outer loop.
  for (std::size_t pi = 0; pi < plan.populations.size(); ++pi) {
    for (std::size_t bi = 0; bi < plan.backends.size(); ++bi) {
      const auto& res = rows[bi * plan.populations.size() + pi].result;
      const std::size_t n0 = plan.populations[pi];
      t.add_row({display_name(plan.backends[bi]), std::to_string(n0),
                 expansion_kind(plan.backends[bi]),
                 adversary_kind(plan.backends[bi]),
                 metrics::Table::num(static_cast<double>(res.max_degree), 0),
                 metrics::Table::num(res.rounds.p99, 0),
                 metrics::Table::num(res.messages.p99, 0),
                 metrics::Table::num(res.topology.p99, 0),
                 metrics::Table::num(res.min_gap, 3)});
    }
  }
  t.print();

  std::printf(
      "\nAnalytic rows (as cited by the paper's Table 1; no open-source\n"
      "artifact exists to measure — reproduced from the publication):\n\n");
  metrics::Table a({"algorithm", "expansion", "adversary", "max degree",
                    "recovery time", "messages", "topology changes"});
  a.add_row({"Law-Siu [18]", "prob >= 1-1/n0", "oblivious", "O(d)",
             "O(log_d n)", "O(d log_d n)", "O(d)"});
  a.add_row({"Skip graphs [2]", "w.h.p.", "adaptive", "O(log n)",
             "O(log^2 n)", "O(log^2 n)", "O(log n)"});
  a.add_row({"SKIP+ [15]", "w.h.p.", "adaptive", "O(log n)", "O(log n) whp",
             "O(log^4 n)", "O(log^4 n) whp"});
  a.add_row({"DEX (this paper)", "deterministic", "adaptive", "O(1)",
             "O(log n) whp", "O(log n) whp", "O(1)"});
  a.print();

  std::printf(
      "\nShape checks (what reproduction means here):\n"
      " - DEX max degree is a constant (<= 3*8*zeta = 192; in practice far\n"
      "   lower) and does NOT grow across the n sweep.\n"
      " - DEX messages/rounds grow ~log n; flooding messages grow ~n.\n"
      " - DEX topology changes stay constant per step.\n"
      " - Every min-gap entry for DEX is bounded away from 0.\n");
  return 0;
}
