#pragma once

/// \file prng.h
/// Deterministic, splittable pseudo-random number generation.
///
/// Experiments must be exactly reproducible from a single seed, and the
/// adaptive adversary of the paper is allowed to observe *past* random
/// choices. We therefore use a small, fast, owned generator (xoshiro256**
/// seeded via splitmix64) rather than std::mt19937 so that (a) the stream is
/// identical across platforms, and (b) the adversary can be handed a replay
/// log without entangling it with the algorithm's future draws.

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dex::support {

/// splitmix64 step; used for seeding and for hashing ids.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix (for hash functions, e.g. the DHT's key hash).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** 1.0 — public-domain generator by Blackman & Vigna.
/// Satisfies UniformRandomBitGenerator, so it composes with <random> if
/// ever needed, but we provide the few distributions we use directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xdeadbeefcafef00dULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    // 128-bit multiply; rejection loop has expected < 2 iterations.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) { return uniform01() < p; }

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for subsystems that must not
  /// perturb the parent stream, e.g. metric sampling).
  [[nodiscard]] Rng split() {
    std::uint64_t s = (*this)();
    return Rng(s);
  }

  /// Equal states produce equal streams (lets a test count the draws a
  /// call took by stepping a copy until it matches).
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// A uniformly random permutation of the positions [0, n), drawn lazily by
/// forward Fisher–Yates: the i-th next() draws j = i + rng.below(n - i),
/// swaps positions i and j and returns what now sits at i. A caller that
/// stops after k positions pays k below() calls and O(k) memory, not O(n);
/// drawn to exhaustion it yields every position exactly once. Only the
/// displaced positions are stored.
class LazyPermutation {
 public:
  explicit LazyPermutation(std::size_t n) : n_(n) {}

  [[nodiscard]] bool done() const { return i_ == n_; }

  /// The next position of the permutation. Requires !done().
  [[nodiscard]] std::size_t next(Rng& rng) {
    const std::size_t j = i_ + static_cast<std::size_t>(rng.below(n_ - i_));
    const std::size_t picked = at(j);
    if (j != i_) moved_[j] = at(i_);
    ++i_;
    return picked;
  }

 private:
  [[nodiscard]] std::size_t at(std::size_t pos) const {
    const auto it = moved_.find(pos);
    return it == moved_.end() ? pos : it->second;
  }

  std::size_t n_;
  std::size_t i_ = 0;  ///< positions drawn so far
  // det: looked up by position, never iterated, so hash order cannot reach
  // the permutation.
  std::unordered_map<std::size_t, std::size_t> moved_;  ///< pos -> occupant
};

}  // namespace dex::support
