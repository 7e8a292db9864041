// Copyright 2026 The AmnesiaDB Authors
//
// Tests for the RNG and the Zipf sampler, including parameterized
// statistical property sweeps.

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"

namespace amnesia {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(1234), b(1234);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsProduceDistinctStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntIsApproximatelyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(0, 9)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);  // within 10%
  }
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformIndex(17), 17u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalScalesAndShifts) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(100.0, 5.0);
  EXPECT_NEAR(sum / n, 100.0, 0.2);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(23);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 9);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndBounded) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementOverask) {
  Rng rng(29);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 50).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 5).empty());
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  Rng rng(31);
  std::vector<int> hits(10, 0);
  const int rounds = 20000;
  for (int r = 0; r < rounds; ++r) {
    for (size_t s : rng.SampleWithoutReplacement(10, 3)) ++hits[s];
  }
  // Each index should be picked with probability 3/10.
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / rounds, 0.3, 0.02);
  }
}

// Floyd's sampler as it stood with a hash set for membership: the bitmap
// version must draw the same numbers and return the same sequence.
std::vector<size_t> HashSetFloyd(Rng* rng, size_t n, size_t k) {
  std::vector<size_t> out;
  if (n == 0 || k == 0) return out;
  if (k >= n) {
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = i;
    rng->Shuffle(&out);
    return out;
  }
  std::unordered_set<size_t> chosen;
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(j)));
    if (chosen.count(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  rng->Shuffle(&out);
  return out;
}

TEST(RngTest, SampleWithoutReplacementMatchesHashSetFloyd) {
  const size_t ns[] = {0, 1, 2, 63, 64, 65, 100, 1000, 14000};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (size_t n : ns) {
      for (size_t k : {size_t{0}, size_t{1}, n / 3, n - n / 10, n, n + 7}) {
        Rng got_rng(seed);
        Rng want_rng(seed);
        ASSERT_EQ(got_rng.SampleWithoutReplacement(n, k),
                  HashSetFloyd(&want_rng, n, k))
            << "seed " << seed << " n " << n << " k " << k;
        // Same stream position afterwards: nothing extra was drawn.
        ASSERT_EQ(got_rng.NextU64(), want_rng.NextU64())
            << "seed " << seed << " n " << n << " k " << k;
      }
    }
  }
}

TEST(RngTest, WeightedSampleRespectsK) {
  Rng rng(37);
  std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(rng.WeightedSampleWithoutReplacement(w, 2).size(), 2u);
  EXPECT_EQ(rng.WeightedSampleWithoutReplacement(w, 10).size(), 4u);
  EXPECT_TRUE(rng.WeightedSampleWithoutReplacement({}, 3).empty());
}

TEST(RngTest, WeightedSampleDistinct) {
  Rng rng(37);
  std::vector<double> w(50, 1.0);
  const auto sample = rng.WeightedSampleWithoutReplacement(w, 25);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 25u);
}

TEST(RngTest, WeightedSampleFavorsHeavyItems) {
  Rng rng(41);
  std::vector<double> w{100.0, 1.0, 1.0, 1.0};
  int heavy_hits = 0;
  const int rounds = 5000;
  for (int r = 0; r < rounds; ++r) {
    const auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    ASSERT_EQ(s.size(), 1u);
    if (s[0] == 0) ++heavy_hits;
  }
  // P(idx 0) = 100/103 ~ 0.97.
  EXPECT_GT(static_cast<double>(heavy_hits) / rounds, 0.9);
}

TEST(RngTest, WeightedSampleAvoidsZeroWeightWhenPossible) {
  Rng rng(43);
  std::vector<double> w{0.0, 1.0, 0.0, 1.0};
  for (int r = 0; r < 100; ++r) {
    for (size_t s : rng.WeightedSampleWithoutReplacement(w, 2)) {
      EXPECT_TRUE(s == 1 || s == 3);
    }
  }
}

TEST(RngTest, WeightedSampleFallsBackToZeroWeight) {
  Rng rng(43);
  std::vector<double> w{0.0, 1.0, 0.0};
  const auto s = rng.WeightedSampleWithoutReplacement(w, 3);
  std::set<size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 3u);  // everything selected, zeros last resort
}

TEST(RngTest, WeightedSampleCallbackFormMatchesVectorForm) {
  Rng shape(47);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const size_t n = shape.UniformIndex(300);
    std::vector<double> w(n);
    for (double& x : w) x = shape.Bernoulli(0.1) ? 0.0 : shape.NextDouble();
    const size_t k = shape.UniformIndex(n + 5);
    Rng vec_rng(seed);
    Rng fn_rng(seed);
    size_t next = 0;  // the callback must see 0, 1, ..., n-1 once each
    const std::vector<size_t> got = fn_rng.WeightedSampleWithoutReplacement(
        n, k, [&](size_t i) {
          EXPECT_EQ(i, next);
          ++next;
          return w[i];
        });
    EXPECT_EQ(next, k == 0 ? 0 : n);
    EXPECT_EQ(got, vec_rng.WeightedSampleWithoutReplacement(w, k))
        << "seed " << seed;
    EXPECT_EQ(fn_rng.NextU64(), vec_rng.NextU64()) << "seed " << seed;
  }
}

// ------------------------------------------------------------------ Zipf

TEST(ZipfTest, BoundsRespected) {
  Rng rng(47);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(&rng), 100u);
}

TEST(ZipfTest, SingleRankAlwaysZero) {
  Rng rng(47);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Next(&rng), 0u);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 0.8);
  double sum = 0.0;
  for (uint64_t k = 0; k < 50; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, PmfIsDecreasingInRank) {
  ZipfSampler zipf(20, 1.2);
  for (uint64_t k = 1; k < 20; ++k) {
    EXPECT_GT(zipf.Pmf(k - 1), zipf.Pmf(k));
  }
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  Rng rng(53);
  ZipfSampler zipf(10, 1.0);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(&rng)];
  for (uint64_t k = 0; k < 10; ++k) {
    const double expected = zipf.Pmf(k);
    const double observed = static_cast<double>(counts[k]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "rank " << k;
  }
}

// Parameterized sweep: the rank-0 mass grows with theta, and the sampler
// stays in bounds for a spread of (n, theta) combinations.
class ZipfSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(ZipfSweepTest, InBoundsAndHeadHeavy) {
  const auto [n, theta] = GetParam();
  Rng rng(59);
  ZipfSampler zipf(n, theta);
  uint64_t head = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_LT(r, n);
    if (r == 0) ++head;
  }
  // Rank 0 must be sampled at least as often as the uniform share.
  EXPECT_GT(static_cast<double>(head) / draws, 1.0 / static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    ZipfGrid, ZipfSweepTest,
    ::testing::Combine(::testing::Values<uint64_t>(2, 10, 1000, 100000),
                       ::testing::Values(0.5, 0.99, 1.0, 1.5)));

TEST(ZipfTest, HigherThetaMoreSkew) {
  Rng rng1(61), rng2(61);
  ZipfSampler mild(1000, 0.5), strong(1000, 1.5);
  int mild_head = 0, strong_head = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.Next(&rng1) < 10) ++mild_head;
    if (strong.Next(&rng2) < 10) ++strong_head;
  }
  EXPECT_GT(strong_head, mild_head);
}

}  // namespace
}  // namespace amnesia
