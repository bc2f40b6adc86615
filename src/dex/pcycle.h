#pragma once

/// \file pcycle.h
/// The p-cycle expander family (Definition 1 of the paper, after Lubotzky).
///
/// For a prime p, Z(p) has vertex set Z_p = {0, …, p−1} and edges
///   (1) y = x+1 mod p  (cycle successor),
///   (2) y = x−1 mod p  (cycle predecessor),
///   (3) y = x^{-1} mod p for x, y > 0  (inverse chord),
/// plus a self-loop at 0 (and the chord rule makes 1 and p−1 self-looped,
/// since 1^{-1} = 1 and (p−1)^{-1} = p−1). Every vertex thus has exactly
/// three ports (a self-loop counting 1), giving an infinite 3-regular family
/// with a constant spectral gap.
///
/// The adjacency is fully analytic — neighbors cost O(1) after a one-time
/// O(p) inverse table — so the virtual graph is never materialized.
/// Shortest paths and distances are computed on demand by meet-in-the-middle
/// search: two balls, around the source and the target, grow a whole level
/// at a time until they intersect. On an expander each ball stops at radius
/// ~diam/2, so a query visits ~O(sqrt p) vertices where a one-sided BFS
/// visits ~p/2. A ball is one membership bit per vertex (p/8 bytes: 15.8 KB
/// at p = 126,493), which every port test reads, plus a byte of depth per
/// vertex (p bytes), written once per vertex the ball reaches and read only
/// by shortest_path's mark-and-rebuild pass. A search thus touches the bit
/// words and one depth byte of each vertex it reaches, not an 8-byte stamp
/// per port test; it clears exactly the words it set, from its list of
/// reached vertices. The
/// coordinator's fixed target (vertex 0) is served from cached BFS
/// distances instead.

#include <array>
#include <cstdint>
#include <vector>

#include "support/assert.h"
#include "support/mathutil.h"

namespace dex {

using Vertex = std::uint64_t;

class PCycle {
 public:
  /// p must be prime (checked).
  explicit PCycle(std::uint64_t p);

  [[nodiscard]] std::uint64_t p() const { return p_; }

  [[nodiscard]] Vertex succ(Vertex x) const { return x + 1 == p_ ? 0 : x + 1; }
  [[nodiscard]] Vertex pred(Vertex x) const { return x == 0 ? p_ - 1 : x - 1; }

  /// The chord port: x^{-1} mod p for x > 0; 0 maps to itself (the explicit
  /// self-loop of Definition 1). Note inv(1) = 1 and inv(p−1) = p−1.
  /// Served from a lazily built O(p) table (the classic linear-time inverse
  /// recurrence): ports() sits under every walk step and every routing BFS,
  /// and paying an extended-Euclid per expansion made modinv two thirds of
  /// the traffic hot path.
  [[nodiscard]] Vertex inv(Vertex x) const {
    if (x == 0) return 0;
    if (inv_table_.empty()) build_inv_table();
    return inv_table_[x];
  }

  /// The three ports of x in a fixed order {succ, pred, inv}.
  [[nodiscard]] std::array<Vertex, 3> ports(Vertex x) const {
    return {succ(x), pred(x), inv(x)};
  }

  /// Degree is 3 for every vertex (self-loops count 1).
  [[nodiscard]] static constexpr unsigned degree() { return 3; }

  /// Distance from x to y: the same two-sided search as shortest_path,
  /// stopped as soon as the balls meet (their radii sum to the distance).
  /// Both share the instance's scratch, so one caller at a time.
  [[nodiscard]] std::uint32_t distance(Vertex x, Vertex y) const;

  /// A shortest path from x to y, inclusive of both endpoints.
  ///
  /// Tie-break contract (routing, stretch and the golden pins depend on
  /// it): among all shortest paths, the one whose port sequence — ports
  /// ranked {succ, pred, inv} — is lexicographically smallest. That is
  /// exactly the path a forward BFS from x returns when it scans each
  /// frontier in order, ports in order, and keeps the first discoverer of
  /// every vertex as its parent.
  ///
  /// Found two-sided: the balls around x and y grow (smaller frontier
  /// first, one whole level at a time) until the first complete level at
  /// which they intersect, at radii a and b. Every shortest path then
  /// crosses the meeting set {v : d(x, v) = a, d(y, v) = b}; the x-side
  /// vertices on some shortest path are marked backwards from it level by
  /// level, and the path is rebuilt greedily from x — first port to a
  /// marked vertex one level deeper while on the x side, then first port
  /// one step closer to y. All scratch is flat bit sets and byte depths,
  /// reused across calls and cleared from the lists of vertices the search
  /// reached, so the traffic hot path runs allocation- and hash-free and
  /// never sweeps all p vertices.
  [[nodiscard]] std::vector<Vertex> shortest_path(Vertex x, Vertex y) const;

  /// Distance to vertex 0 from cached BFS distances (O(1) after the first
  /// call, which computes them in O(p)).
  [[nodiscard]] std::uint32_t distance_to_zero(Vertex x) const;

  /// All (undirected) edges, self-loops once: used by tests and by
  /// materialization of the real network snapshot.
  /// Enumeration order: for each x, the edge (x, succ(x)); then for each
  /// x <= inv(x), the chord (x, inv(x)).
  template <class Fn>
  void for_each_edge(Fn&& fn) const {
    for (Vertex x = 0; x < p_; ++x) fn(x, succ(x));
    for (Vertex x = 0; x < p_; ++x) {
      const Vertex y = inv(x);
      if (x <= y) fn(x, y);
    }
  }

 private:
  void ensure_zero_dist() const;
  void build_inv_table() const;

  std::uint64_t p_;
  /// x -> x^{-1} mod p, built on first chord access. u32 entries: p is the
  /// smallest prime in (4 n0, 8 n0), far below 2^32 at any simulable size
  /// (asserted at construction), so the table costs 4 bytes per vertex.
  mutable std::vector<std::uint32_t> inv_table_;
  /// Lazily built BFS distances from vertex 0.
  mutable std::vector<std::uint32_t> zero_dist_;
  /// One side of the two-sided search: a membership bit per vertex, the
  /// depth of each member (valid only where its bit is set), and every
  /// member in discovery order, level by level. members[0, count) is the
  /// ball and its outermost level (depth `radius`), members[frontier_begin,
  /// count), the frontier; the buffer is kept larger than `count` so a
  /// level is appended without a capacity check per vertex.
  struct Ball {
    std::vector<std::uint64_t> bits;
    std::vector<std::uint8_t> depth;
    std::vector<std::uint32_t> members;
    std::size_t count = 0;
    std::size_t frontier_begin = 0;
    std::uint32_t radius = 0;

    [[nodiscard]] bool has(Vertex v) const {
      return ((bits[v >> 6] >> (v & 63)) & 1) != 0;
    }
    [[nodiscard]] std::size_t frontier_size() const {
      return count - frontier_begin;
    }
  };

  /// Starts a search with balls {x} and {y} (allocating the bit sets and
  /// depths on the first search only).
  void begin_search(Vertex x, Vertex y) const;
  /// Grows the balls around x and y (ball_[0], ball_[1]) until the first
  /// complete level at which they intersect; d(x, y) is then the sum of
  /// their radii. Requires x != y.
  void grow_until_met(Vertex x, Vertex y) const;
  /// Clears the balls' bits, one word per member: no O(p) sweep.
  void end_search() const;

  mutable Ball ball_[2];
  /// Marks x-side vertices that lie on a shortest x–y path (a bit each),
  /// and every marked vertex, level by level from the meeting set inwards.
  mutable std::vector<std::uint64_t> on_path_;
  mutable std::vector<Vertex> marked_;
};

}  // namespace dex
