// Quickstart: build a DEX network, churn it with an adaptive adversary, and
// watch the paper's guarantees hold — constant degree, constant spectral
// gap, O(log n) recovery cost per step.
//
//   $ ./quickstart [steps=2000] [seed=7]

#include <cstdio>

#include "adversary/adversary.h"
#include "graph/spectral.h"
#include "metrics/stats.h"
#include "sim/scenario.h"
#include "support/parse.h"

int main(int argc, char** argv) {
  const std::size_t steps = dex::support::positional_u64(argc, argv, 1, 2000);
  const std::uint64_t seed = dex::support::positional_u64(argc, argv, 2, 7);

  dex::Params params;
  params.seed = seed;
  params.mode = dex::RecoveryMode::WorstCase;
  dex::sim::DexOverlay overlay(64, params);
  const dex::DexNetwork& net = overlay.net();
  // The adversary's view of the network; advance() after every mutation.
  dex::adversary::AdversaryView view(overlay);

  dex::adversary::RandomChurn strategy(0.55);  // mild growth bias
  dex::support::Rng adv_rng(seed ^ 0xadull);

  std::vector<double> rounds, messages, topo;
  double min_gap = 1.0;
  for (std::size_t t = 0; t < steps; ++t) {
    const auto action = strategy.next(view, adv_rng, 16, 100000);
    if (action.insert) {
      overlay.insert(action.target);
    } else {
      overlay.remove(action.target);
    }
    view.advance();
    const auto& rep = net.last_report();
    rounds.push_back(static_cast<double>(rep.cost.rounds));
    messages.push_back(static_cast<double>(rep.cost.messages));
    topo.push_back(static_cast<double>(rep.cost.topology_changes));
    if (t % 250 == 0) {
      const auto spec = dex::graph::spectral_gap(view.live_csr());
      if (spec.gap < min_gap) min_gap = spec.gap;
      std::printf(
          "step %5zu  n=%5zu  p=%7llu  gap=%.3f  staggered=%d  "
          "rounds=%llu msgs=%llu\n",
          t, net.n(), static_cast<unsigned long long>(net.p()), spec.gap,
          net.staggered_active() ? 1 : 0,
          static_cast<unsigned long long>(rep.cost.rounds),
          static_cast<unsigned long long>(rep.cost.messages));
    }
  }
  net.check_invariants();

  const auto r = dex::metrics::summarize(rounds);
  const auto m = dex::metrics::summarize(messages);
  const auto c = dex::metrics::summarize(topo);
  std::printf("\nAfter %zu adversarial steps (final n=%zu):\n", steps,
              net.n());
  std::printf("  rounds/step    mean=%.1f p99=%.0f max=%.0f\n", r.mean, r.p99,
              r.max);
  std::printf("  messages/step  mean=%.1f p99=%.0f max=%.0f\n", m.mean, m.p99,
              m.max);
  std::printf("  topo-changes   mean=%.1f p99=%.0f max=%.0f\n", c.mean, c.p99,
              c.max);
  std::printf("  min sampled spectral gap = %.3f (stays constant)\n", min_gap);
  std::printf("  inflations=%llu deflations=%llu forced_sync=%llu\n",
              static_cast<unsigned long long>(net.inflation_count()),
              static_cast<unsigned long long>(net.deflation_count()),
              static_cast<unsigned long long>(net.forced_sync_type2()));
  return 0;
}
