// Metrics helpers: summaries, percentile edges, linear fits, table layout,
// and the PRNG (determinism, uniformity sanity, split independence).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "metrics/stats.h"
#include "metrics/table.h"
#include "support/prng.h"

namespace m = dex::metrics;

TEST(Stats, SummaryBasics) {
  const auto s = m::summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(Stats, SummaryEmpty) {
  const auto s = m::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingle) {
  const auto s = m::summarize({42});
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.p99, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(Stats, PercentilesOnLongTail) {
  std::vector<double> v(100, 1.0);
  v[99] = 1000.0;
  const auto s = m::summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.p95, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Stats, FitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto f = m::fit_line(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, FitDegenerateInputs) {
  EXPECT_DOUBLE_EQ(m::fit_line({1}, {2}).slope, 0.0);
  EXPECT_DOUBLE_EQ(m::fit_line({1, 1, 1}, {1, 2, 3}).slope, 0.0);
}

TEST(Table, RendersMarkdown) {
  m::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
  EXPECT_NE(s.find("|-----|----|"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(m::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(m::Table::num(2.0, 0), "2");
  EXPECT_EQ(m::Table::integer(12345), "12345");
}

TEST(Table, RowArityMismatchAborts) {
  m::Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "");
}

TEST(Prng, Deterministic) {
  dex::support::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, BelowIsInRangeAndRoughlyUniform) {
  dex::support::Rng r(5);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int c : buckets) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Prng, Uniform01Bounds) {
  dex::support::Rng r(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, ShuffleIsPermutation) {
  dex::support::Rng r(7);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  r.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Prng, SplitProducesIndependentStream) {
  dex::support::Rng a(8);
  auto child = a.split();
  // Parent and child streams differ.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a() != child()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Prng, RangeInclusive) {
  dex::support::Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, Mix64IsStable) {
  // Fixed value so DHT key placement is reproducible across platforms.
  EXPECT_EQ(dex::support::mix64(0), dex::support::mix64(0));
  EXPECT_NE(dex::support::mix64(1), dex::support::mix64(2));
}

namespace {

/// Every position a LazyPermutation over [0, n) yields, drawn to exhaustion.
std::vector<std::size_t> drain(std::size_t n, std::uint64_t seed) {
  dex::support::Rng rng(seed);
  dex::support::LazyPermutation perm(n);
  std::vector<std::size_t> out;
  while (!perm.done()) out.push_back(perm.next(rng));
  return out;
}

}  // namespace

TEST(LazyPermutation, ExhaustionYieldsEachPositionOnce) {
  for (const std::size_t n : {0, 1, 2, 7, 1000}) {
    SCOPED_TRACE(n);
    auto out = drain(n, 17);
    ASSERT_EQ(out.size(), n);
    std::sort(out.begin(), out.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i);
  }
}

TEST(LazyPermutation, DeterministicPerSeed) {
  EXPECT_EQ(drain(1000, 5), drain(1000, 5));
  EXPECT_NE(drain(1000, 5), drain(1000, 6));
}

TEST(LazyPermutation, FirstDrawIsUniform) {
  // 8,000 seeds over n = 8: each position comes first Binomial(8000, 1/8)
  // times, mean 1,000 and standard deviation ~29.6; the band is ±5 sd.
  std::vector<int> first(8, 0);
  for (std::uint64_t seed = 0; seed < 8000; ++seed) {
    dex::support::Rng rng(seed);
    dex::support::LazyPermutation perm(8);
    ++first[perm.next(rng)];
  }
  for (const int c : first) {
    EXPECT_GT(c, 850);
    EXPECT_LT(c, 1150);
  }
}
