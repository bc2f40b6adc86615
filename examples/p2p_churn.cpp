// P2P overlay under heavy, bursty churn — the workload that motivates the
// paper's introduction: peers join in flash crowds and leave in waves, and
// the overlay must keep (a) constant node degree (cheap links), (b) constant
// expansion (fast broadcast, robust routing), and (c) O(log n) maintenance
// per event.
//
// Simulates a day of "flash crowd / mass exodus" cycles — each phase is one
// ScenarioRunner run (insert-only to double, delete-only to halve) — and
// prints overlay health after each phase.
//
//   $ ./p2p_churn [phases=6] [seed=42]

#include <cstdio>

#include "graph/bfs.h"
#include "graph/spectral.h"
#include "metrics/table.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "support/parse.h"

int main(int argc, char** argv) {
  const std::size_t phases = dex::support::positional_u64(argc, argv, 1, 6);
  const std::uint64_t seed = dex::support::positional_u64(argc, argv, 2, 42);

  dex::Params prm;
  prm.seed = seed;
  prm.mode = dex::RecoveryMode::WorstCase;
  dex::sim::DexOverlay overlay(64, prm);

  dex::metrics::Table t({"phase", "event", "n", "p", "diameter", "gap",
                        "max degree", "msgs/step (p99)", "rebuilds"});

  std::uint64_t rebuilds_seen = 0;
  for (std::size_t phase = 0; phase < phases; ++phase) {
    const bool flash_crowd = phase % 2 == 0;
    // Each phase roughly doubles or halves the population.
    const std::size_t target =
        flash_crowd ? overlay.n() * 2
                    : std::max<std::size_t>(overlay.n() / 2, 16);
    const std::size_t steps =
        flash_crowd ? target - overlay.n() : overlay.n() - target;

    dex::adversary::InsertOnly grow;
    dex::adversary::DeleteOnly shrink;
    dex::sim::ScenarioSpec spec;
    spec.seed = seed * 31 + 7 + phase;
    spec.steps = steps;
    spec.min_n = 8;
    spec.max_n = 4 * target + 8;
    dex::sim::ScenarioRunner runner(
        overlay,
        flash_crowd ? static_cast<dex::adversary::Strategy&>(grow)
                    : static_cast<dex::adversary::Strategy&>(shrink),
        spec);
    runner.set_observer(
        [&](const dex::sim::StepRecord&, dex::sim::HealingOverlay&) {
          if (overlay.net().last_report().type2_event) ++rebuilds_seen;
        });
    const auto res = runner.run();
    overlay.check_invariants();

    const auto g = overlay.snapshot();
    const auto mask = overlay.alive_mask();
    std::size_t max_deg = 0;
    for (auto u : overlay.alive_nodes())
      max_deg = std::max(max_deg, g.degree(u));
    const auto spec_gap = dex::graph::spectral_gap(g, mask);
    const auto diam = dex::graph::diameter_estimate(g, mask);
    t.add_row({std::to_string(phase),
               flash_crowd ? "flash crowd (x2)" : "mass exodus (/2)",
               std::to_string(overlay.n()),
               std::to_string(overlay.net().p()), std::to_string(diam),
               dex::metrics::Table::num(spec_gap.gap, 3),
               std::to_string(max_deg),
               dex::metrics::Table::num(res.messages.p99, 0),
               std::to_string(rebuilds_seen)});
  }
  t.print();
  std::printf(
      "\nOverlay health held through %zu doubling/halving phases:\n"
      "constant degree, logarithmic diameter, gap bounded away from zero,\n"
      "and %llu staggered rebuild(s) absorbed without a cost spike.\n",
      phases, static_cast<unsigned long long>(rebuilds_seen));
  return 0;
}
