// The rendezvous scan behind KvStore::scan_candidates (sim/hrw_scan.h):
// each compiled block body, driven directly, must give the top K by
// (score desc, id asc), their count and the (K+1)-th score as the floor,
// exactly as a full sort of the alive set does — at populations below,
// at and across the 64-id block boundary, and on tie-heavy scores where
// only the id order decides — and the once-per-process choice of body must
// be safe to make from several threads at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "sim/hrw_scan.h"
#include "support/prng.h"

using namespace dex;
using graph::NodeId;
using sim::detail::HrwBlockFn;

namespace {

constexpr std::size_t kK = 8;

/// The rendezvous weight, written out independently of the kernel.
std::uint64_t reference_score(std::uint64_t key_hash, NodeId u) {
  return support::mix64(key_hash ^ (0x9e3779b97f4a7c15ULL * (u + 1)));
}

/// Ascending ids with gaps of 1-4.
std::vector<NodeId> gapped_ids(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<NodeId> ids;
  NodeId next = static_cast<NodeId>(rng.below(5));
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(next);
    next += 1 + static_cast<NodeId>(rng.below(4));
  }
  return ids;
}

/// Sorts every id by (score desc, id asc) and keeps the first K.
template <std::size_t K>
sim::detail::HrwTop<K> reference_top(
    const std::vector<NodeId>& ids,
    const std::function<std::uint64_t(NodeId)>& score) {
  std::vector<sim::detail::HrwCandidate> all;
  for (const NodeId u : ids) all.push_back({u, score(u)});
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  sim::detail::HrwTop<K> out;
  out.count = static_cast<std::uint32_t>(std::min(all.size(), K));
  std::copy_n(all.begin(), out.count, out.top.begin());
  out.floor = all.size() > K ? all[K].score : 0;
  return out;
}

template <std::size_t K>
void expect_same_top(const sim::detail::HrwTop<K>& got,
                     const sim::detail::HrwTop<K>& want, std::size_t n) {
  ASSERT_EQ(got.count, want.count) << "n=" << n;
  for (std::size_t i = 0; i < K; ++i) {
    EXPECT_EQ(got.top[i].node, want.top[i].node) << "n=" << n << " i=" << i;
    EXPECT_EQ(got.top[i].score, want.top[i].score) << "n=" << n << " i=" << i;
  }
  EXPECT_EQ(got.floor, want.floor) << "n=" << n;
}

const std::vector<std::size_t> kSizes{1, kK, kK + 1, 63, 64, 65, 130, 5000};

void check_body_against_reference(HrwBlockFn body) {
  for (const std::size_t n : kSizes) {
    const auto ids = gapped_ids(n, 7 + n);
    for (std::uint64_t key = 0; key < 24; ++key) {
      const std::uint64_t kh = support::mix64(key);
      const auto want = reference_top<kK>(
          ids, [kh](NodeId u) { return reference_score(kh, u); });
      expect_same_top(sim::detail::hrw_top<kK>(kh, ids, body), want, n);
    }
  }
}

void check_block_scores(HrwBlockFn body) {
  const auto ids = gapped_ids(sim::detail::kHrwBlock, 3);
  std::vector<std::uint64_t> scores(sim::detail::kHrwBlock);
  for (std::size_t n = 0; n <= ids.size(); ++n) {
    const std::uint64_t kh = support::mix64(n);
    const std::uint64_t got_max = body(kh, ids.data(), n, scores.data());
    std::uint64_t want_max = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scores[i], reference_score(kh, ids[i])) << "n=" << n;
      want_max = std::max(want_max, scores[i]);
    }
    EXPECT_EQ(got_max, want_max) << "n=" << n;
  }
}

/// A block body with few distinct scores (id mod 5), so nearly every
/// comparison is a tie and only the id order picks the winners.
std::uint64_t tie_heavy_block(std::uint64_t /*key_hash*/, const NodeId* ids,
                              std::size_t n, std::uint64_t* scores) {
  std::uint64_t block_max = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = ids[i] % 5;
    block_max = std::max(block_max, scores[i]);
  }
  return block_max;
}

}  // namespace

// First in the file, so in a default run its threads make the process's
// first hrw_block() calls and race the dispatch's one-time choice (the
// TSan CI job runs this binary).
TEST(HrwScan, ConcurrentFirstScansAgree) {
  const auto ids = gapped_ids(5000, 1);
  const std::uint64_t kh = support::mix64(9);
  std::vector<sim::detail::HrwTop<kK>> got(4);
  std::vector<std::thread> threads;
  for (auto& out : got) {
    threads.emplace_back([&ids, kh, &out] {
      out = sim::detail::hrw_top<kK>(kh, ids, sim::detail::hrw_block());
    });
  }
  for (auto& t : threads) t.join();
  const auto want = reference_top<kK>(
      ids, [kh](NodeId u) { return reference_score(kh, u); });
  for (const auto& g : got) expect_same_top(g, want, ids.size());
}

TEST(HrwScan, PortableBodyScoresEveryBlockLength) {
  check_block_scores(&sim::detail::hrw_block_portable);
}

TEST(HrwScan, PortableBodyMatchesAFullSort) {
  check_body_against_reference(&sim::detail::hrw_block_portable);
}

TEST(HrwScan, Avx512BodyScoresEveryBlockLength) {
  const HrwBlockFn body = sim::detail::hrw_block_avx512();
  if (body == nullptr) GTEST_SKIP() << "no AVX-512F/DQ/VL body on this CPU";
  check_block_scores(body);
}

TEST(HrwScan, Avx512BodyMatchesAFullSort) {
  const HrwBlockFn body = sim::detail::hrw_block_avx512();
  if (body == nullptr) GTEST_SKIP() << "no AVX-512F/DQ/VL body on this CPU";
  check_body_against_reference(body);
}

TEST(HrwScan, DispatchPicksTheAvx512BodyWhenTheCpuHasIt) {
  const HrwBlockFn avx512 = sim::detail::hrw_block_avx512();
  // Logged so a CI run shows which body its CPU scanned with.
  std::printf("placement scan body: %s\n",
              avx512 != nullptr ? "avx512" : "portable");
  EXPECT_EQ(sim::detail::hrw_block(),
            avx512 != nullptr ? avx512 : &sim::detail::hrw_block_portable);
}

TEST(HrwScan, TiesKeepTheLowerIdAhead) {
  for (const std::size_t n : kSizes) {
    const auto ids = gapped_ids(n, 11 + n);
    const auto want =
        reference_top<kK>(ids, [](NodeId u) { return std::uint64_t{u % 5}; });
    expect_same_top(sim::detail::hrw_top<kK>(0, ids, &tie_heavy_block), want,
                    n);
  }
}

TEST(HrwScan, OtherListLengthsMatchAFullSort) {
  const auto ids = gapped_ids(300, 5);
  const std::uint64_t kh = support::mix64(42);
  const auto score = [kh](NodeId u) { return reference_score(kh, u); };
  const HrwBlockFn body = sim::detail::hrw_block();
  expect_same_top(sim::detail::hrw_top<1>(kh, ids, body),
                  reference_top<1>(ids, score), ids.size());
  expect_same_top(sim::detail::hrw_top<3>(kh, ids, body),
                  reference_top<3>(ids, score), ids.size());
  expect_same_top(sim::detail::hrw_top<64>(kh, ids, body),
                  reference_top<64>(ids, score), ids.size());
}
