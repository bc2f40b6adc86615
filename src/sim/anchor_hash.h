#pragma once

/// \file anchor_hash.h
/// AnchorHash (Mendelson, Vargaftik, Barabash, Lorenz, Keslassy and Orda,
/// "AnchorHash: A Scalable Consistent Hash", IEEE/ACM ToN 2021), the
/// consistent hash behind sim::KvStore's key placement.
///
/// A fixed anchor of `capacity` buckets, of which a working subset serves
/// keys; removed buckets wait on a stack. A key hashes to a bucket of the
/// anchor. While that bucket is removed, the key re-draws a position in the
/// working array as it stood right after that bucket's removal, and follows
/// the successor chain K to the bucket that held the position then. So:
///
///  * a lookup costs expected O(1 + ln(capacity / working));
///  * remove(b) moves only the keys that mapped to b;
///  * add() re-takes the most recently removed bucket and undoes its
///    removal exactly, so keys move only onto it;
///  * keys spread uniformly over the working buckets.
///
/// State: four uint32 arrays of `capacity` entries plus the removed stack.
/// Hashing is a pure function of the key and the bucket: no RNG.

#include <cstdint>
#include <vector>

#include "support/assert.h"
#include "support/prng.h"

namespace dex::sim {

class AnchorHash {
 public:
  AnchorHash() = default;
  /// Buckets [0, working) serve; [working, capacity) start removed, the
  /// highest first, so add() hands them out in ascending order.
  AnchorHash(std::uint32_t capacity, std::uint32_t working)
      : a_(capacity), k_(capacity), w_(capacity), l_(capacity), n_(working) {
    DEX_ASSERT_MSG(working > 0 && working <= capacity,
                   "AnchorHash needs 0 < working <= capacity");
    for (std::uint32_t b = 0; b < capacity; ++b) {
      a_[b] = b < working ? 0 : b;
      k_[b] = w_[b] = l_[b] = b;
    }
    removed_.reserve(capacity);
    for (std::uint32_t b = capacity; b > working; --b) {
      removed_.push_back(b - 1);
    }
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(a_.size());
  }
  [[nodiscard]] std::uint32_t size() const { return n_; }
  [[nodiscard]] bool full() const { return removed_.empty(); }
  [[nodiscard]] bool working(std::uint32_t b) const { return a_[b] == 0; }

  /// The bucket `key` tries first. A key maps there whenever it works.
  [[nodiscard]] std::uint32_t first_bucket(std::uint64_t key) const {
    return scale(support::mix64(key), capacity());
  }

  /// The position `key` re-draws after finding bucket b removed, in the
  /// working array of `working_then` buckets that b's removal left.
  [[nodiscard]] static std::uint32_t redraw(std::uint64_t key,
                                            std::uint32_t b,
                                            std::uint32_t working_then) {
    return scale(
        support::mix64(key ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{b} + 1))),
        working_then);
  }

  /// The working bucket serving `key`.
  [[nodiscard]] std::uint32_t lookup(std::uint64_t key) const {
    std::uint32_t b = first_bucket(key);
    while (a_[b] > 0) {
      std::uint32_t h = redraw(key, b, a_[b]);
      // h held position h when b was removed unless it had been removed
      // before b; then the chain of successors names who held it.
      while (a_[h] >= a_[b]) h = k_[h];
      b = h;
    }
    return b;
  }

  /// Takes working bucket b out; the last working bucket takes its position.
  void remove(std::uint32_t b) {
    DEX_ASSERT_MSG(working(b) && n_ > 1,
                   "AnchorHash removes a working bucket, never the last");
    a_[b] = --n_;
    const std::uint32_t last = w_[n_];
    w_[l_[b]] = last;
    l_[last] = l_[b];
    k_[b] = last;
    removed_.push_back(b);
  }

  /// Re-takes the most recently removed bucket and returns it.
  std::uint32_t add() {
    DEX_ASSERT_MSG(!full(), "AnchorHash is full");
    const std::uint32_t b = removed_.back();
    removed_.pop_back();
    a_[b] = 0;
    l_[w_[n_]] = n_;  // w_[n_] is the bucket that took b's position
    w_[l_[b]] = b;
    k_[b] = b;
    ++n_;
    return b;
  }

 private:
  /// Maps a 64-bit hash onto [0, range) by its high 32 bits.
  [[nodiscard]] static std::uint32_t scale(std::uint64_t h,
                                           std::uint32_t range) {
    return static_cast<std::uint32_t>(((h >> 32) * range) >> 32);
  }

  /// a_[b]: 0 while b works, else the working count its removal left.
  std::vector<std::uint32_t> a_;
  /// k_[b]: the bucket that took b's position when b was removed.
  std::vector<std::uint32_t> k_;
  /// w_: the working array, positions [0, n_); l_[b]: b's position in it.
  std::vector<std::uint32_t> w_;
  std::vector<std::uint32_t> l_;
  std::vector<std::uint32_t> removed_;  ///< removal order, latest last
  std::uint32_t n_ = 0;
};

}  // namespace dex::sim
