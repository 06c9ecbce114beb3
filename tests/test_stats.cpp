// Tests for descriptive statistics (dsp/stats.h).
#include "dsp/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::dsp::mean;
using emoleak::dsp::mean_crossing_rate;
using emoleak::dsp::quantile;
using emoleak::dsp::quantile_sorted;
using emoleak::dsp::rms;
using emoleak::dsp::summarize;
using emoleak::dsp::Summary;

TEST(SummarizeTest, KnownSmallSample) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(x);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 1.25);  // population variance
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(s.skewness, 0.0, 1e-12);
}

TEST(SummarizeTest, ConstantSampleHasZeroMoments) {
  const std::vector<double> x(10, 7.0);
  const Summary s = summarize(x);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.skewness, 0.0);
  EXPECT_DOUBLE_EQ(s.kurtosis, 0.0);
}

TEST(SummarizeTest, SkewnessSignDetectsAsymmetry) {
  // Right-skewed sample: many small values, one large.
  const std::vector<double> right{1.0, 1.0, 1.0, 1.0, 10.0};
  EXPECT_GT(summarize(right).skewness, 0.5);
  const std::vector<double> left{-10.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_LT(summarize(left).skewness, -0.5);
}

TEST(SummarizeTest, GaussianSampleMomentsMatch) {
  emoleak::util::Rng rng{5};
  std::vector<double> x(100000);
  for (double& v : x) v = rng.normal(3.0, 2.0);
  const Summary s = summarize(x);
  EXPECT_NEAR(s.mean, 3.0, 0.03);
  EXPECT_NEAR(s.stddev, 2.0, 0.03);
  EXPECT_NEAR(s.skewness, 0.0, 0.05);
  EXPECT_NEAR(s.kurtosis, 0.0, 0.1);  // excess kurtosis
}

TEST(SummarizeTest, UniformSampleKurtosisNegative) {
  emoleak::util::Rng rng{6};
  std::vector<double> x(50000);
  for (double& v : x) v = rng.uniform();
  EXPECT_NEAR(summarize(x).kurtosis, -1.2, 0.1);
}

TEST(SummarizeTest, EmptyThrows) {
  EXPECT_THROW((void)summarize(std::vector<double>{}), emoleak::util::DataError);
  EXPECT_THROW((void)mean(std::vector<double>{}), emoleak::util::DataError);
  EXPECT_THROW((void)rms(std::vector<double>{}), emoleak::util::DataError);
}

TEST(MeanTest, AgreesWithSummary) {
  const std::vector<double> x{1.0, 5.0, -3.0, 2.0};
  EXPECT_DOUBLE_EQ(mean(x), summarize(x).mean);
}

TEST(QuantileTest, MedianOfOddSample) {
  const std::vector<double> x{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 3.0);
}

TEST(QuantileTest, InterpolatesBetweenValues) {
  const std::vector<double> x{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(x, 0.75), 7.5);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> x{4.0, -1.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 9.0);
}

// quantile_sorted over a caller's sorted copy must give quantile's bits
// exactly (test_features checks time_features' selection against it).
TEST(QuantileTest, SortedMatchesQuantileBitForBit) {
  emoleak::util::Rng rng{23};
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 10u, 101u, 256u}) {
    std::vector<double> x(n);
    // Few distinct values, so ties and repeats are common.
    for (double& v : x) v = 0.25 * static_cast<double>(rng.uniform_int(5)) - 0.3;
    for (std::size_t i = 0; i + 1 < n; i += 3) x[i] = rng.normal();
    std::vector<double> sorted = x;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.99, 1.0}) {
      const double a = quantile(x, q);
      const double b = quantile_sorted(sorted, q);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "n=" << n << " q=" << q;
    }
  }
}

TEST(QuantileTest, InvalidArgsThrow) {
  const std::vector<double> x{1.0};
  EXPECT_THROW((void)quantile(x, -0.1), emoleak::util::DataError);
  EXPECT_THROW((void)quantile(x, 1.1), emoleak::util::DataError);
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5),
               emoleak::util::DataError);
  EXPECT_THROW((void)quantile_sorted(x, 1.1), emoleak::util::DataError);
  EXPECT_THROW((void)quantile_sorted(std::vector<double>{}, 0.5),
               emoleak::util::DataError);
}

TEST(MeanCrossingRateTest, SineCrossesTwicePerCycle) {
  const double rate = 1000.0;
  const double freq = 25.0;
  std::vector<double> x(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / rate);
  }
  // Crossings per sample = 2 * freq / rate.
  EXPECT_NEAR(mean_crossing_rate(x), 2.0 * freq / rate, 0.005);
}

TEST(MeanCrossingRateTest, ConstantSignalZero) {
  EXPECT_DOUBLE_EQ(mean_crossing_rate(std::vector<double>(10, 2.0)), 0.0);
}

TEST(MeanCrossingRateTest, ShortSignalsZero) {
  EXPECT_DOUBLE_EQ(mean_crossing_rate(std::vector<double>{1.0}), 0.0);
  EXPECT_DOUBLE_EQ(mean_crossing_rate(std::vector<double>{}), 0.0);
}

TEST(MeanCrossingRateTest, OffsetInvariant) {
  std::vector<double> x(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 10.0 * static_cast<double>(i) / 500.0);
  }
  const double base = mean_crossing_rate(x);
  for (double& v : x) v += 9.81;  // gravity offset
  // Invariant up to floating-point jitter at exact-zero samples.
  EXPECT_NEAR(mean_crossing_rate(x), base, 0.01);
}

TEST(RmsTest, KnownValue) {
  const std::vector<double> x{3.0, 4.0};
  EXPECT_NEAR(rms(x), std::sqrt(12.5), 1e-12);
}

}  // namespace
