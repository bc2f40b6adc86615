#pragma once

/// \file hrw_scan.h
/// The rendezvous (HRW) scan behind KvStore::scan_candidates: given a
/// pre-mixed key hash and the ascending alive set, the top K candidates by
/// (score desc, id asc) and the (K+1)-th score as the floor. Internal to
/// sim/workload.cpp; it is a header only so tests can drive each compiled
/// block body directly.
///
/// The scan scores the ids in blocks of kHrwBlock into a stack buffer and
/// takes each block's maximum in the same loop. A block whose maximum does
/// not beat the running (K+1)-th best score is skipped whole; the rest go
/// through a scalar insertion into a top-(K+1) array. On a random score
/// stream only O(K log(n / kHrwBlock)) blocks survive the test, so almost
/// all of the work is the branch-free scoring loop.
///
/// The scoring loop is one body compiled twice: portable, and for
/// AVX-512F/DQ/VL, where vpmullq does the 64-bit multiplies of the score
/// mix. hrw_block() picks one once per process with
/// __builtin_cpu_supports; a non-GNU or non-x86 build has only the
/// portable body. Both bodies compute the same scores bit for bit, so the
/// choice never shows in any output.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/multigraph.h"

namespace dex::sim::detail {

/// Ids scored per block: a 512-byte stack buffer of scores.
inline constexpr std::size_t kHrwBlock = 64;

struct HrwCandidate {
  graph::NodeId node = graph::kInvalidNode;
  std::uint64_t score = 0;
};

/// Scores ids[0, n) (n <= kHrwBlock) for `key_hash` into scores[0, n) and
/// returns their maximum (0 when n == 0).
using HrwBlockFn = std::uint64_t (*)(std::uint64_t key_hash,
                                     const graph::NodeId* ids, std::size_t n,
                                     std::uint64_t* scores);

/// The portable block body.
std::uint64_t hrw_block_portable(std::uint64_t key_hash,
                                 const graph::NodeId* ids, std::size_t n,
                                 std::uint64_t* scores);

/// The AVX-512 block body, or nullptr when this build has none or the CPU
/// lacks AVX-512F, DQ or VL.
[[nodiscard]] HrwBlockFn hrw_block_avx512();

/// The body KvStore scans with: the AVX-512 one when available, else the
/// portable one. Chosen on the first call.
[[nodiscard]] HrwBlockFn hrw_block();

/// The best K candidates, best first, and the floor: the (K+1)-th best
/// score, or 0 when K or fewer ids were scanned.
template <std::size_t K>
struct HrwTop {
  std::array<HrwCandidate, K> top{};
  std::uint32_t count = 0;
  std::uint64_t floor = 0;
};

/// Scans the ascending `ids` with `score_block`. Ties on score keep the
/// lower id ahead, as (score desc, id asc) demands: ids arrive ascending, a
/// newcomer must strictly beat the (K+1)-th score to enter, and insertion
/// moves it only past strictly lower scores.
template <std::size_t K>
[[nodiscard]] HrwTop<K> hrw_top(std::uint64_t key_hash,
                                std::span<const graph::NodeId> ids,
                                HrwBlockFn score_block) {
  std::array<HrwCandidate, K + 1> best{};
  std::size_t held = 0;
  std::array<std::uint64_t, kHrwBlock> scores{};
  for (std::size_t base = 0; base < ids.size(); base += kHrwBlock) {
    const std::size_t n = std::min(kHrwBlock, ids.size() - base);
    const graph::NodeId* block = ids.data() + base;
    const std::uint64_t block_max =
        score_block(key_hash, block, n, scores.data());
    if (held == K + 1 && block_max <= best[K].score) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t s = scores[i];
      std::size_t at = held;
      if (held < K + 1) {
        ++held;
      } else if (s > best[K].score) {
        at = K;
      } else {
        continue;
      }
      for (; at > 0 && best[at - 1].score < s; --at) best[at] = best[at - 1];
      best[at] = HrwCandidate{block[i], s};
    }
  }
  HrwTop<K> out;
  out.count = static_cast<std::uint32_t>(std::min(held, K));
  std::copy_n(best.begin(), out.count, out.top.begin());
  if (held == K + 1) out.floor = best[K].score;
  return out;
}

}  // namespace dex::sim::detail
