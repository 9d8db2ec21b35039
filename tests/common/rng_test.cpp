#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace hg {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.below(kBuckets)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// The fabric draws loss through chance(loss_rate) on the stream latency
// also draws from: a rate of 0 or 1 must consume nothing, or every
// loss-free run's latencies would move.
TEST(Rng, ChanceAtZeroOrOneConsumesNoDraw) {
  Rng rng(5);
  Rng reference(5);
  for (int i = 0; i < 100; ++i) {
    (void)rng.chance(0.0);
    (void)rng.chance(1.0);
    (void)rng.chance(-0.5);
    (void)rng.chance(1.5);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next(), reference.next());
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kDraws, 3.0, 0.1);
}

TEST(Rng, ForkIsIndependentOfParentUsage) {
  Rng a(99);
  Rng fork_before = a.fork(1);
  (void)a.next();
  (void)a.next();
  Rng fork_after = a.fork(1);
  // fork() depends only on the seed and tag, not on how much the parent used.
  EXPECT_EQ(fork_before.next(), fork_after.next());
}

TEST(Rng, ForkDifferentTagsDiverge) {
  Rng a(99);
  Rng f1 = a.fork(1), f2 = a.fork(2);
  EXPECT_NE(f1.next(), f2.next());
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(21);
  std::vector<std::uint32_t> out;
  for (std::size_t n : {1UL, 5UL, 100UL, 1000UL}) {
    for (std::size_t k = 0; k <= std::min<std::size_t>(n, 20); ++k) {
      rng.sample_indices(n, k, out);
      ASSERT_EQ(out.size(), k);
      std::set<std::uint32_t> uniq(out.begin(), out.end());
      EXPECT_EQ(uniq.size(), k);
      for (auto v : out) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleIndicesUniformCoverage) {
  Rng rng(23);
  std::vector<std::uint32_t> out;
  std::vector<int> counts(50, 0);
  constexpr int kRounds = 20000;
  for (int i = 0; i < kRounds; ++i) {
    rng.sample_indices(50, 5, out);
    for (auto v : out) counts[v]++;
  }
  // Each index expected kRounds * 5 / 50 = 2000 times.
  for (int c : counts) EXPECT_NEAR(c, 2000, 200);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace hg
