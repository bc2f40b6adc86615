// Adaptive-adversary duel: the same unbounded greedy spectral-deletion
// adversary (it inspects the full topology and evaluates candidate
// deletions' post-healing spectral gap) attacks a probabilistic overlay
// (Law–Siu) and DEX side by side — the contrast that motivates the paper.
// Both duels are the same ScenarioRunner call; only the overlay differs.
//
//   $ ./adversary_attack [deletions=120] [seed=5]

#include <cstdio>

#include "graph/spectral.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "support/parse.h"

namespace sim = dex::sim;

namespace {

void duel(sim::HealingOverlay& overlay, std::size_t deletions,
          std::uint64_t seed, std::size_t n0) {
  std::printf("  after %3zu deletions: n=%3zu  gap=%.4f\n",
              std::size_t{0}, overlay.n(),
              dex::graph::spectral_gap(overlay.snapshot(),
                                       overlay.alive_mask())
                  .gap);
  dex::adversary::GreedySpectralDeletion attack(24);
  sim::ScenarioSpec spec;
  spec.seed = seed;
  spec.steps = deletions;
  spec.min_n = 40;
  spec.max_n = 4 * n0;
  sim::ScenarioRunner runner(overlay, attack, spec);
  runner.set_observer(
      [](const sim::StepRecord& rec, sim::HealingOverlay& o) {
        if ((rec.step + 1) % 20 == 0) {
          std::printf("  after %3llu deletions: n=%3zu  gap=%.4f\n",
                      static_cast<unsigned long long>(rec.step + 1), rec.n,
                      dex::graph::spectral_gap(o.snapshot(), o.alive_mask())
                          .gap);
        }
      });
  runner.run();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t deletions =
      dex::support::positional_u64(argc, argv, 1, 120);
  const std::uint64_t seed = dex::support::positional_u64(argc, argv, 2, 5);
  const std::size_t n0 = 200;

  std::printf("target: union of 2 random Hamiltonian cycles (Law-Siu)\n");
  {
    sim::LawSiuOverlay overlay(n0, 2, seed);
    duel(overlay, deletions, seed + 1, n0);
  }

  std::printf("\ntarget: DEX (worst-case mode), same adversary\n");
  {
    dex::Params prm;
    prm.seed = seed;
    prm.mode = dex::RecoveryMode::WorstCase;
    sim::DexOverlay overlay(n0, prm);
    duel(overlay, deletions, seed + 2, n0);
    overlay.check_invariants();
  }

  std::printf(
      "\nThe probabilistic overlay's expansion decays monotonically under\n"
      "the adaptive attack and never recovers; DEX re-balances after every\n"
      "deletion, so the same adversary cannot push it below its\n"
      "deterministic floor.\n");
  return 0;
}
