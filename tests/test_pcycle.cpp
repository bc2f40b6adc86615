// Structural tests of the p-cycle expander family (Definition 1): exact
// 3-regularity (self-loops at 0, 1, p−1), inverse-chord symmetry,
// connectivity, logarithmic diameter, and a directly computed spectral gap
// bounded away from zero across the family — the property everything else
// rests on. Plus the routing contract: the two-sided shortest_path returns
// exactly the path a forward BFS returns, pinned pair by pair.

#include <gtest/gtest.h>

#include <vector>

#include "dex/pcycle.h"
#include "graph/bfs.h"
#include "graph/multigraph.h"
#include "graph/spectral.h"
#include "support/mathutil.h"
#include "support/prng.h"

using dex::PCycle;
using dex::Vertex;

namespace {

dex::graph::Multigraph materialize(const PCycle& c) {
  dex::graph::Multigraph g(c.p());
  c.for_each_edge([&](Vertex x, Vertex y) {
    g.add_edge(static_cast<dex::graph::NodeId>(x),
               static_cast<dex::graph::NodeId>(y));
  });
  return g;
}

// The reference tie-break: a forward BFS from x that scans each frontier in
// order, ports in order {succ, pred, inv}, and keeps the first discoverer
// of a vertex as its parent. Stops once `stop` is discovered; pass p to
// fill the whole tree. Undiscovered vertices keep the parent p.
std::vector<Vertex> forward_bfs_parents(const PCycle& c, Vertex x,
                                        Vertex stop) {
  std::vector<Vertex> parent(c.p(), c.p());
  parent[x] = x;
  std::vector<Vertex> frontier{x};
  std::vector<Vertex> next;
  while (!frontier.empty()) {
    next.clear();
    for (const Vertex v : frontier) {
      for (const Vertex w : c.ports(v)) {
        if (parent[w] != c.p()) continue;
        parent[w] = v;
        if (w == stop) return parent;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  return parent;
}

std::vector<Vertex> path_from_parents(const std::vector<Vertex>& parent,
                                      Vertex x, Vertex y) {
  std::vector<Vertex> path{y};
  for (Vertex cur = y; cur != x;) {
    cur = parent[cur];
    path.push_back(cur);
  }
  return {path.rbegin(), path.rend()};
}

}  // namespace

TEST(PCycle, PortsOfSmallCycle) {
  const PCycle c(23);
  // Vertex 0: succ 1, pred 22, self-loop.
  auto p0 = c.ports(0);
  EXPECT_EQ(p0[0], 1u);
  EXPECT_EQ(p0[1], 22u);
  EXPECT_EQ(p0[2], 0u);
  // Vertex 1: inverse of 1 is 1 (self-loop).
  EXPECT_EQ(c.inv(1), 1u);
  // Vertex 22 = -1 mod 23: its own inverse.
  EXPECT_EQ(c.inv(22), 22u);
  // 2 * 12 = 24 = 1 mod 23.
  EXPECT_EQ(c.inv(2), 12u);
  EXPECT_EQ(c.inv(12), 2u);
}

TEST(PCycle, InverseIsInvolution) {
  for (std::uint64_t p : {5ULL, 23ULL, 101ULL, 1009ULL}) {
    const PCycle c(p);
    for (Vertex x = 1; x < p; ++x) {
      EXPECT_EQ(c.inv(c.inv(x)), x) << "p=" << p << " x=" << x;
    }
  }
}

TEST(PCycle, Exactly3Regular) {
  for (std::uint64_t p : {5ULL, 23ULL, 101ULL, 997ULL}) {
    const auto g = materialize(PCycle(p));
    for (dex::graph::NodeId u = 0; u < p; ++u) {
      EXPECT_EQ(g.degree(u), 3u) << "p=" << p << " v=" << u;
    }
  }
}

TEST(PCycle, SelfLoopsExactlyAt01AndPMinus1) {
  for (std::uint64_t p : {5ULL, 23ULL, 101ULL}) {
    const auto g = materialize(PCycle(p));
    for (dex::graph::NodeId u = 0; u < p; ++u) {
      const bool expect_loop = (u == 0 || u == 1 || u == p - 1);
      EXPECT_EQ(g.multiplicity(u, u) > 0, expect_loop) << "p=" << p << " " << u;
    }
  }
}

TEST(PCycle, EdgeCountMatchesHandshake) {
  for (std::uint64_t p : {23ULL, 101ULL, 499ULL}) {
    const auto g = materialize(PCycle(p));
    // 3-regular with self-loops counting 1 => total degree = 3p.
    EXPECT_EQ(g.total_degree(), 3 * p);
    EXPECT_TRUE(g.is_consistent());
  }
}

TEST(PCycle, Connected) {
  for (std::uint64_t p : {5ULL, 23ULL, 101ULL, 1009ULL}) {
    EXPECT_TRUE(dex::graph::is_connected(materialize(PCycle(p))));
  }
}

TEST(PCycle, DiameterIsLogarithmic) {
  // Diameter should grow like O(log p): generous absolute bounds.
  const PCycle small(101);
  const auto ecc = dex::graph::eccentricity(materialize(small), 0);
  EXPECT_LE(ecc, 14u);
  const PCycle big(1009);
  const auto ecc2 = dex::graph::eccentricity(materialize(big), 0);
  EXPECT_LE(ecc2, 22u);
  EXPECT_GE(ecc2, 5u);  // and it is not trivially small
}

TEST(PCycle, DistanceAgreesWithBfs) {
  const PCycle c(101);
  const auto g = materialize(c);
  const auto dist = dex::graph::bfs_distances(g, 0);
  for (Vertex x = 0; x < 101; x += 7) {
    EXPECT_EQ(c.distance(0, x), dist[x]) << x;
    EXPECT_EQ(c.distance(x, 0), dist[x]) << x;  // symmetric
    EXPECT_EQ(c.distance_to_zero(x), dist[x]) << x;
  }
}

TEST(PCycle, ShortestPathIsValidAndShortest) {
  const PCycle c(499);
  for (Vertex x : {1ULL, 37ULL, 250ULL, 498ULL}) {
    for (Vertex y : {0ULL, 42ULL, 313ULL}) {
      const auto path = c.shortest_path(x, y);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), x);
      EXPECT_EQ(path.back(), y);
      EXPECT_EQ(path.size(), c.distance(x, y) + 1);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto ports = c.ports(path[i]);
        EXPECT_TRUE(ports[0] == path[i + 1] || ports[1] == path[i + 1] ||
                    ports[2] == path[i + 1])
            << "hop " << i;
      }
    }
  }
}

TEST(PCycle, ShortestPathMatchesForwardBfsOnEveryPairOfSmallPrimes) {
  for (std::uint64_t p : {5ULL, 7ULL, 11ULL, 13ULL, 101ULL, 211ULL, 1009ULL}) {
    const PCycle c(p);
    for (Vertex x = 0; x < p; ++x) {
      const auto parent = forward_bfs_parents(c, x, p);
      for (Vertex y = 0; y < p; ++y) {
        const auto expect = path_from_parents(parent, x, y);
        ASSERT_EQ(c.shortest_path(x, y), expect)
            << "p=" << p << " " << x << " -> " << y;
        ASSERT_EQ(c.distance(x, y), expect.size() - 1)
            << "p=" << p << " " << x << " -> " << y;
      }
    }
  }
}

TEST(PCycle, ShortestPathMatchesForwardBfsOnRandomPairsAtScale) {
  // Close to the cycle size at kv-zipf's n0 = 31623, where the two balls
  // stop far short of the whole graph.
  const std::uint64_t p = 126271;
  ASSERT_TRUE(dex::support::is_prime(p));
  const PCycle c(p);
  dex::support::Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    const Vertex x = rng.below(p);
    const Vertex y = rng.below(p);
    const auto expect = path_from_parents(forward_bfs_parents(c, x, y), x, y);
    ASSERT_EQ(c.shortest_path(x, y), expect) << x << " -> " << y;
  }
}

TEST(PCycle, PathToZeroMatchesDistance) {
  const PCycle c(1009);
  for (Vertex x = 1; x < 1009; x += 97) {
    const auto path = c.path_to_zero(x);
    EXPECT_EQ(path.front(), x);
    EXPECT_EQ(path.back(), 0u);
    EXPECT_EQ(path.size(), c.distance_to_zero(x) + 1);
  }
}

// The family property (Definition 4): a constant spectral gap across sizes.
// Lubotzky's x -> {x±1, x^{-1}} graphs are expanders with a small but
// *size-independent* gap; measured values settle around 0.025 and stay flat
// from p ≈ 1000 onwards (0.0254 at p=1009, 0.0266 at p=4099).
TEST(PCycle, SpectralGapBoundedAcrossFamily) {
  double prev_gap = 1.0;
  for (std::uint64_t p : {23ULL, 101ULL, 499ULL, 1009ULL, 4099ULL}) {
    const auto g = materialize(PCycle(p));
    const auto spec = dex::graph::spectral_gap(g);
    EXPECT_TRUE(spec.converged) << p;
    EXPECT_GT(spec.gap, 0.02) << "p=" << p << " gap=" << spec.gap;
    EXPECT_LT(spec.lambda2, 1.0) << p;
    prev_gap = spec.gap;
  }
  // Not collapsing with size: the largest instance keeps a constant gap.
  EXPECT_GT(prev_gap, 0.02);
}

TEST(PCycle, RejectsNonPrime) {
  EXPECT_DEATH(PCycle(24), "prime");
}
