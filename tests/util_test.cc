#include <gtest/gtest.h>

#include <set>

#include "util/gaussian.h"
#include "util/levenshtein.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace afex {
namespace {

// ---- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values show up
}

TEST(RngTest, NextDoubleInHalfOpenUnit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, SampleWeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.SampleWeighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, SampleWeightedAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.SampleWeighted(weights));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

// ---- discrete Gaussian ----

TEST(GaussianTest, StaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    size_t v = SampleDiscreteGaussian(rng, 5, 3.0, 10);
    EXPECT_LT(v, 10u);
  }
}

TEST(GaussianTest, CentersOnMean) {
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(SampleDiscreteGaussian(rng, 50, 5.0, 101)));
  }
  EXPECT_NEAR(stats.mean(), 50.0, 0.5);
}

TEST(GaussianTest, FavorsNearbyValues) {
  Rng rng(3);
  int near = 0;
  int far = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t v = SampleDiscreteGaussian(rng, 50, 5.0, 101);
    size_t d = v > 50 ? v - 50 : 50 - v;
    if (d <= 5) {
      ++near;
    } else if (d >= 20) {
      ++far;
    }
  }
  EXPECT_GT(near, far * 5);
}

TEST(GaussianTest, DegenerateSigmaReturnsCenter) {
  Rng rng(4);
  EXPECT_EQ(SampleDiscreteGaussian(rng, 3, 0.0, 10), 3u);
}

TEST(GaussianTest, SingleValueAxis) {
  Rng rng(5);
  EXPECT_EQ(SampleDiscreteGaussian(rng, 0, 2.0, 1), 0u);
}

TEST(GaussianTest, ExcludingCenterNeverReturnsCenter) {
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE(SampleDiscreteGaussianExcludingCenter(rng, 4, 2.0, 9), 4u);
  }
}

TEST(GaussianTest, ExcludingCenterOnTwoValueAxis) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    size_t v = SampleDiscreteGaussianExcludingCenter(rng, 0, 0.4, 2);
    EXPECT_EQ(v, 1u);
  }
}

TEST(GaussianTest, PaperSigmaIsFifthOfCardinality) {
  EXPECT_DOUBLE_EQ(PaperSigma(100), 20.0);
  EXPECT_DOUBLE_EQ(PaperSigma(5), 1.0);
}

// ---- stats ----

TEST(StatsTest, WelfordMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, FewSamplesZeroVariance) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(StatsTest, SampleVarianceBesselCorrected) {
  RunningStats s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(StatsTest, SpanHelpers) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.0);
  EXPECT_NEAR(Variance(xs), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

// ---- Levenshtein ----

TEST(LevenshteinTest, CharacterDistanceClassics) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinTest, TokenDistanceCountsFrames) {
  std::vector<std::string> a = {"main", "parse", "read"};
  std::vector<std::string> b = {"main", "parse", "write"};
  EXPECT_EQ(LevenshteinDistanceTokens(a, b), 1u);
  std::vector<std::string> c = {"main"};
  EXPECT_EQ(LevenshteinDistanceTokens(a, c), 2u);
}

TEST(LevenshteinTest, TokenSimilarityRange) {
  std::vector<std::string> a = {"f", "g"};
  std::vector<std::string> b = {"f", "g"};
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, b), 1.0);
  std::vector<std::string> c = {"x", "y"};
  EXPECT_DOUBLE_EQ(TokenSimilarity(a, c), 0.0);
  std::vector<std::string> empty;
  EXPECT_DOUBLE_EQ(TokenSimilarity(empty, empty), 1.0);
}

TEST(LevenshteinTest, SymmetricDistance) {
  std::vector<std::string> a = {"m", "n", "o", "p"};
  std::vector<std::string> b = {"m", "o", "p"};
  EXPECT_EQ(LevenshteinDistanceTokens(a, b), LevenshteinDistanceTokens(b, a));
}

// ---- strings ----

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto parts = Split("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringsTest, ParseUint) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(ParseUint("", v));
  EXPECT_FALSE(ParseUint("-3", v));
  EXPECT_FALSE(ParseUint("12x", v));
  EXPECT_FALSE(ParseUint("99999999999999999999999", v));
  EXPECT_TRUE(ParseUint("0", v));
  EXPECT_EQ(v, 0u);
}

}  // namespace
}  // namespace afex
