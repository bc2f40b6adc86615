// Batch vs. sequential churn across backends and batch sizes (§5, Cor. 2).
//
// Both comparisons are declarative ExperimentPlans run by the parallel
// Executor. The DEX table expands one grid (n0 x batch) twice — once with
// the default overlay factory (parallel-walk batches) and once with a
// customized factory that disables them — and pairs the rows; the same
// burst-churn workload (same strategy, same seed, same batch-size knob)
// goes through HealingOverlay::apply either way. The two DEX runs start
// identical but their realizations diverge after the first step — batch
// decisions read the overlay's own evolving topology — so the comparison is
// statistical, not op-for-op (the events/batch column confirms equal batch
// sizes; the speedup dwarfs realization noise). The headline number is
// rounds per batch: sequential application pays ~batch_size * O(log n)
// rounds (events heal one after another), the parallel path pays O(log³ n)
// for the whole batch — the paper's sequential-vs-parallel comparison at
// equal batch sizes.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "metrics/table.h"
#include "sim/experiment.h"

using namespace dex;

namespace {

constexpr std::size_t kSteps = 16;

struct RunStats {
  double rounds_per_batch = 0;
  double msgs_per_batch = 0;
  double events_per_batch = 0;
  std::size_t parallel_steps = 0;
  std::size_t type2_steps = 0;
};

RunStats stats_of(const sim::ScenarioResult& res) {
  RunStats s;
  const double n_steps = static_cast<double>(res.rounds.count);
  s.rounds_per_batch = static_cast<double>(res.total.rounds) / n_steps;
  s.msgs_per_batch = static_cast<double>(res.total.messages) / n_steps;
  s.events_per_batch =
      static_cast<double>(res.total_inserts + res.total_deletes) / n_steps;
  s.parallel_steps = res.parallel_steps;
  s.type2_steps = res.type2_steps;
  return s;
}

sim::ExperimentPlan dex_plan() {
  sim::ExperimentPlan plan;
  plan.backends = {"dex-amortized"};
  plan.scenarios = {"burst"};
  plan.populations = {256, 1024};
  plan.batch_sizes = {4, 16, 64};
  plan.base.steps = kSteps;
  return plan;
}

// The classic per-cell seeding: adversary stream keyed to the grid point.
void seed_by_cell(sim::TrialSpec& t) {
  t.spec.seed = 1000 + t.n0 + t.spec.batch_size;
}

// Runs the trials on all cores (deterministic regardless) and returns their
// per-trial aggregates in trial order.
std::vector<sim::AggregateSink::Row> run_trials(
    std::vector<sim::TrialSpec> trials) {
  sim::ExecutorOptions opts;
  opts.jobs = 0;
  sim::Executor executor(opts);
  sim::AggregateSink agg;
  executor.add_sink(agg);
  executor.run(std::move(trials));
  return agg.rows();
}

}  // namespace

int main() {
  std::printf("=== batch scaling: parallel batch recovery vs sequential "
              "application ===\n\n");

  // Variant A: the stock dex-amortized overlay (parallel-walk batches).
  // The expanded trial list doubles as the table's row labels below.
  auto plan = dex_plan();
  plan.customize = seed_by_cell;
  const auto trials = plan.expand();
  const auto par = run_trials(trials);

  // Variant B: identical grid, identical workload, but the overlay factory
  // flips set_parallel_batches(false) — the sequential baseline on the same
  // backend. Per-axis overrides like this are exactly what customize is for.
  auto seq_plan = dex_plan();
  seq_plan.customize = [](sim::TrialSpec& t) {
    seed_by_cell(t);
    t.make_overlay = [n0 = t.n0, seed = sim::overlay_seed(t.spec.seed)] {
      dex::Params prm;
      prm.seed = seed;
      prm.mode = RecoveryMode::Amortized;
      auto overlay = std::make_unique<sim::DexOverlay>(n0, prm);
      overlay->set_parallel_batches(false);
      return overlay;
    };
  };
  const auto seq = run_trials(seq_plan.expand());

  metrics::Table dex_table({"n0", "batch", "seq rounds/batch",
                            "par rounds/batch", "speedup", "par steps",
                            "type2", "events/batch"});
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto s = stats_of(seq[i].result);
    const auto p = stats_of(par[i].result);
    dex_table.add_row(
        {std::to_string(trials[i].n0),
         std::to_string(trials[i].spec.batch_size),
         metrics::Table::num(s.rounds_per_batch, 1),
         metrics::Table::num(p.rounds_per_batch, 1),
         metrics::Table::num(
             s.rounds_per_batch / std::max(p.rounds_per_batch, 1.0), 2),
         std::to_string(p.parallel_steps), std::to_string(p.type2_steps),
         metrics::Table::num(p.events_per_batch, 1)});
  }
  std::printf("--- dex-amortized: sequential default vs parallel-walk "
              "batches (same seeded workload; realizations diverge as each "
              "overlay evolves) ---\n");
  dex_table.print();

  std::printf(
      "\nShape check (Cor. 2): sequential rounds/batch grow ~linearly in the\n"
      "batch size while the parallel column stays polylog-flat, so the\n"
      "speedup widens with the batch — parallel must beat sequential at\n"
      "every equal batch size.\n\n");

  // Every backend under the same burst workload — one grid, one executor
  // pass, the AggregateSink streaming the per-trial summaries.
  sim::ExperimentPlan all;
  all.backends = sim::known_overlays();
  all.scenarios = {"burst"};
  all.populations = {256};
  all.batch_sizes = {4, 16};
  all.base.steps = kSteps;
  all.customize = [](sim::TrialSpec& t) {
    t.spec.seed = 7 + t.spec.batch_size;
  };

  metrics::Table bk({"backend", "n0", "batch", "rounds/batch", "msgs/batch",
                     "events/batch"});
  for (const auto& row : run_trials(all.expand())) {
    const auto r = stats_of(row.result);
    bk.add_row({row.info.backend, std::to_string(row.info.n0),
                std::to_string(row.info.batch_size),
                metrics::Table::num(r.rounds_per_batch, 1),
                metrics::Table::num(r.msgs_per_batch, 1),
                metrics::Table::num(r.events_per_batch, 1)});
  }
  std::printf("--- every backend under the same burst workload (batch-first "
              "apply; only DEX-amortized parallelizes) ---\n");
  bk.print();
  return 0;
}
