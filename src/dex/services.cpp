#include "dex/services.h"

#include "support/mathutil.h"

namespace dex {

SampleResult sample_node(DexNetwork& net, NodeId origin) {
  DEX_ASSERT(net.alive(origin));
  SampleResult res;
  auto& rng = net.rng();
  const std::uint64_t len = std::max<std::uint64_t>(
      2, support::scaled_log(net.params().walk_factor,
                             std::max<std::uint64_t>(net.n(), 2)));
  std::vector<std::uint64_t> ports;
  // Rejection sampling: accept a landing node u with probability
  // min_load/load(u) (min_load == 1 by surjectivity), so the accepted
  // distribution is uniform over nodes up to the walk's mixing error.
  // After the initial full-length walk the chain is mixed; a rejected
  // attempt only needs a short extension walk before re-drawing, keeping
  // the expected total cost at O(log n).
  NodeId cur = origin;
  const std::uint64_t retry_len = std::max<std::uint64_t>(2, len / 4);
  for (res.attempts = 1; res.attempts <= 64; ++res.attempts) {
    const std::uint64_t hop_count = res.attempts == 1 ? len : retry_len;
    for (std::uint64_t s = 0; s < hop_count; ++s) {
      net.ports_of(cur, ports);
      DEX_ASSERT(!ports.empty());
      cur = static_cast<NodeId>(ports[rng.below(ports.size())]);
      res.cost.rounds += 1;
      res.cost.messages += 1;
    }
    const std::uint64_t load = std::max<std::uint64_t>(net.total_load(cur), 1);
    if (rng.below(load) == 0) {
      res.node = cur;
      return res;
    }
  }
  // Overwhelmingly unlikely (acceptance prob >= 1/(8ζ)); fall back to the
  // last landing node.
  std::vector<std::uint64_t> p2;
  net.ports_of(origin, p2);
  res.node = origin;
  return res;
}

}  // namespace dex
