#include "sim/token_engine.h"

#include <unordered_set>

#include "support/assert.h"

namespace dex::sim {

namespace {

/// Directed-edge key for the congestion set.
std::uint64_t edge_key(std::uint64_t from, std::uint64_t to) {
  // from/to are location ids < 2^32 in all our uses (vertices of a p-cycle
  // or node ids); assert and pack.
  DEX_ASSERT(from < (1ULL << 32) && to < (1ULL << 32));
  return (from << 32) | to;
}

}  // namespace

EngineResult run_walks(std::vector<Token> tokens, const PortsFn& ports,
                       support::Rng& rng, std::uint64_t round_limit,
                       const AcceptFn& accept) {
  EngineResult res;
  std::size_t active = 0;
  for (auto& t : tokens) {
    if (t.steps_remaining == 0) t.finished = true;
    if (!t.finished) ++active;
  }

  std::vector<std::size_t> order(tokens.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::unordered_set<std::uint64_t> used_edges;
  std::vector<std::uint64_t> port_buf;

  while (active > 0 && res.rounds < round_limit) {
    ++res.rounds;
    used_edges.clear();
    // Random service order each round — ties between tokens contending for
    // the same directed edge are broken arbitrarily in the model; randomizing
    // avoids systematic starvation of high-index tokens.
    rng.shuffle(order);
    for (std::size_t idx : order) {
      Token& t = tokens[idx];
      if (t.finished) continue;
      ports(t.location, port_buf);
      DEX_ASSERT_MSG(!port_buf.empty(), "token stranded at isolated location");
      const std::uint64_t next = port_buf[rng.below(port_buf.size())];
      const std::uint64_t key = edge_key(t.location, next);
      if (used_edges.contains(key)) continue;  // edge busy: wait a round
      used_edges.insert(key);
      t.location = next;
      ++res.messages;
      --t.steps_remaining;
      if (t.steps_remaining == 0 || (accept && accept(next))) {
        t.finished = true;
        --active;
      }
    }
  }

  res.all_finished = (active == 0);
  res.tokens = std::move(tokens);
  return res;
}

}  // namespace dex::sim
