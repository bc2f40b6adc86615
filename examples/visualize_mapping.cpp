// Figure-1 style visualization for arbitrary sizes: prints the virtual
// p-cycle → real-node mapping of a live DexNetwork as a table plus Graphviz
// DOT, before and after churn, so the re-balancing is visible.
//
//   $ ./visualize_mapping [n0=7] [churn=10] [seed=2]
//   $ ./visualize_mapping 7 10 2 | dot -Tsvg > mapping.svg   # with graphviz

#include <cstdio>
#include <map>

#include "dex/network.h"
#include "support/parse.h"
#include "support/prng.h"

namespace {

void print_mapping(const dex::DexNetwork& net, const char* title) {
  std::printf("-- %s: n=%zu, p=%llu --\n", title, net.n(),
              static_cast<unsigned long long>(net.p()));
  for (dex::NodeId u : net.alive_nodes()) {
    std::printf("node %3u simulates {", u);
    bool first = true;
    for (dex::Vertex z : net.mapping().sim(u)) {
      std::printf("%s%llu", first ? "" : ",",
                  static_cast<unsigned long long>(z));
      first = false;
    }
    std::printf("}  load=%u degree=%u%s\n", net.mapping().load(u),
                3 * net.mapping().load(u),
                u == net.coordinator() ? "  [coordinator]" : "");
  }
}

void print_dot(const dex::DexNetwork& net) {
  std::printf("graph dex_network {\n  layout=circo;\n");
  std::map<std::pair<dex::NodeId, dex::NodeId>, int> mult;
  net.cycle().for_each_edge([&](dex::Vertex x, dex::Vertex y) {
    auto a = net.mapping().owner(x);
    auto b = net.mapping().owner(y);
    if (a > b) std::swap(a, b);
    ++mult[{a, b}];
  });
  for (const auto& [e, m] : mult) {
    std::printf("  n%u -- n%u [label=%d];\n", e.first, e.second, m);
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n0 = dex::support::positional_u64(argc, argv, 1, 7);
  const std::size_t churn = dex::support::positional_u64(argc, argv, 2, 10);
  const std::uint64_t seed = dex::support::positional_u64(argc, argv, 3, 2);

  dex::Params prm;
  prm.seed = seed;
  dex::DexNetwork net(n0, prm);
  dex::support::Rng rng(seed + 99);

  print_mapping(net, "initial balanced mapping (cf. paper Fig. 1)");
  std::printf("\n");

  for (std::size_t t = 0; t < churn; ++t) {
    const auto nodes = net.alive_nodes();
    if (rng.chance(0.6) || net.n() <= 4) {
      net.insert(nodes[rng.below(nodes.size())]);
    } else {
      net.remove(nodes[rng.below(nodes.size())]);
    }
  }
  net.check_invariants();
  print_mapping(net, "after churn (still balanced & surjective)");
  std::printf("\n// Graphviz of the real network:\n");
  print_dot(net);
  return 0;
}
