#include "stats/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace dlb::stats {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, FromStateContinuesTheSequenceAndRejectsTheDeadState) {
  Rng a(42);
  (void)a();
  Rng b = Rng::from_state(a.state());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
  // All-zero is xoshiro's fixed point: every draw would be zero forever.
  EXPECT_THROW((void)Rng::from_state(Rng::State{}), std::invalid_argument);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(3.0, 8.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 8.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, BelowIsAlwaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(17);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng rng(21);
  constexpr int kSamples = 200'000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kSamples, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  constexpr int kSamples = 200'000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, StreamsAreIndependentOfParentUse) {
  // Stream k of seed s must not depend on how other streams were used.
  Rng s3a = Rng::stream(99, 3);
  Rng s5 = Rng::stream(99, 5);
  (void)s5();
  Rng s3b = Rng::stream(99, 3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(s3a(), s3b());
}

TEST(Rng, StreamsDifferAcrossIndices) {
  Rng a = Rng::stream(1234, 0);
  Rng b = Rng::stream(1234, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(33);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  shuffle(v.begin(), v.end(), rng);
  int fixed_points = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[i] == i) ++fixed_points;
  }
  EXPECT_LT(fixed_points, 10);  // E[fixed points] = 1
}

TEST(Rng, Splitmix64KnownValues) {
  // Reference values from the canonical splitmix64 implementation.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  EXPECT_EQ(first, 0xE220A8397B1DCDAFULL);
}

class RngSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSweep, BernoulliFrequencyTracksP) {
  Rng rng(GetParam());
  constexpr int kSamples = 50'000;
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (rng.bernoulli(p)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, p, 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSweep,
                         ::testing::Values(1u, 42u, 1000u, 0xdeadbeefu));

}  // namespace
}  // namespace dlb::stats
