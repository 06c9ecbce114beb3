// Tests for Table-II feature extraction (features/features.h).
#include "features/features.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::features::extract_features;
using emoleak::features::feature_names;
using emoleak::features::freq_features;
using emoleak::features::kFeatureCount;
using emoleak::features::kFreqFeatureCount;
using emoleak::features::kTimeFeatureCount;
using emoleak::features::time_features;

std::vector<double> sine(double freq_hz, double rate_hz, std::size_t n,
                         double amp = 1.0, double dc = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = dc + amp * std::sin(2.0 * std::numbers::pi * freq_hz *
                               static_cast<double>(i) / rate_hz);
  }
  return x;
}

TEST(FeatureNamesTest, TwentyFourNamesMatchingTableII) {
  const auto& names = feature_names();
  ASSERT_EQ(names.size(), kFeatureCount);
  EXPECT_EQ(kTimeFeatureCount, 12u);
  EXPECT_EQ(kFreqFeatureCount, 12u);
  EXPECT_EQ(names[0], "Min");
  EXPECT_EQ(names[11], "MeanCrossingRate");
  EXPECT_EQ(names[12], "Energy");
  EXPECT_EQ(names[23], "SpecKurt");
}

TEST(TimeFeaturesTest, KnownSample) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const auto f = time_features(x);
  EXPECT_DOUBLE_EQ(f[0], 1.0);   // Min
  EXPECT_DOUBLE_EQ(f[1], 4.0);   // Max
  EXPECT_DOUBLE_EQ(f[2], 2.5);   // Mean
  EXPECT_DOUBLE_EQ(f[4], 1.25);  // Variance (population)
  EXPECT_DOUBLE_EQ(f[5], 3.0);   // Range
  EXPECT_NEAR(f[6], std::sqrt(1.25) / 2.5, 1e-12);  // CV
  EXPECT_DOUBLE_EQ(f[9], 1.75);  // Q25
  EXPECT_DOUBLE_EQ(f[10], 2.5);  // Q50
}

TEST(TimeFeaturesTest, CvZeroWhenMeanZero) {
  const std::vector<double> x{-1.0, 1.0, -1.0, 1.0};
  EXPECT_DOUBLE_EQ(time_features(x)[6], 0.0);
}

TEST(TimeFeaturesTest, EmptyThrows) {
  EXPECT_THROW((void)time_features(std::vector<double>{}),
               emoleak::util::DataError);
}

TEST(FreqFeaturesTest, CentroidTracksToneFrequency) {
  for (const double f0 : {30.0, 80.0, 150.0}) {
    const auto f = freq_features(sine(f0, 420.0, 2100), 420.0);
    EXPECT_NEAR(f[7], f0, 6.0) << "f0=" << f0;  // SpecCentroid
  }
}

TEST(FreqFeaturesTest, CentroidIgnoresDcOffset) {
  const auto with_dc = freq_features(sine(60.0, 420.0, 2100, 1.0, 9.81), 420.0);
  const auto without = freq_features(sine(60.0, 420.0, 2100), 420.0);
  EXPECT_NEAR(with_dc[7], without[7], 2.0);
}

TEST(FreqFeaturesTest, EnergyScalesWithAmplitudeSquared) {
  const auto soft = freq_features(sine(60.0, 420.0, 2100, 1.0), 420.0);
  const auto loud = freq_features(sine(60.0, 420.0, 2100, 3.0), 420.0);
  EXPECT_NEAR(loud[0] / soft[0], 9.0, 0.1);
}

TEST(FreqFeaturesTest, EntropyLowForToneHighForNoise) {
  const auto tone = freq_features(sine(60.0, 420.0, 4200), 420.0);
  emoleak::util::Rng rng{3};
  std::vector<double> noise(4200);
  for (double& v : noise) v = rng.normal();
  const auto white = freq_features(noise, 420.0);
  EXPECT_LT(tone[1], 0.3);
  EXPECT_GT(white[1], 0.8);
}

TEST(FreqFeaturesTest, FrequencyRatioRespectsSplit) {
  // Tone below the 50 Hz split -> ratio ~0; above -> ~1.
  const auto low = freq_features(sine(20.0, 420.0, 4200), 420.0);
  const auto high = freq_features(sine(120.0, 420.0, 4200), 420.0);
  EXPECT_LT(low[2], 0.2);
  EXPECT_GT(high[2], 0.8);
}

TEST(FreqFeaturesTest, CrestHigherForTone) {
  const auto tone = freq_features(sine(60.0, 420.0, 4200), 420.0);
  emoleak::util::Rng rng{4};
  std::vector<double> noise(4200);
  for (double& v : noise) v = rng.normal();
  const auto white = freq_features(noise, 420.0);
  EXPECT_GT(tone[9], white[9]);  // SpecCrest
}

TEST(FreqFeaturesTest, SpreadLowForToneHighForNoise) {
  const auto tone = freq_features(sine(60.0, 420.0, 4200), 420.0);
  emoleak::util::Rng rng{5};
  std::vector<double> noise(4200);
  for (double& v : noise) v = rng.normal();
  const auto white = freq_features(noise, 420.0);
  EXPECT_LT(tone[8], white[8]);  // SpecStdDev
}

TEST(FreqFeaturesTest, SharpnessGrowsWithFrequency) {
  const auto low = freq_features(sine(20.0, 420.0, 4200), 420.0);
  const auto high = freq_features(sine(180.0, 420.0, 4200), 420.0);
  EXPECT_GT(high[5], low[5]);
}

TEST(FreqFeaturesTest, InvalidInputsThrow) {
  EXPECT_THROW((void)freq_features(std::vector<double>{}, 420.0),
               emoleak::util::DataError);
  EXPECT_THROW((void)freq_features(std::vector<double>(10, 1.0), 0.0),
               emoleak::util::ConfigError);
}

TEST(ExtractFeaturesTest, ConcatenatesTimeAndFreq) {
  const auto x = sine(60.0, 420.0, 2100, 1.0, 9.81);
  const auto all = extract_features(x, 420.0);
  ASSERT_EQ(all.size(), kFeatureCount);
  const auto t = time_features(x);
  const auto q = freq_features(x, 420.0);
  for (std::size_t i = 0; i < kTimeFeatureCount; ++i) {
    EXPECT_DOUBLE_EQ(all[i], t[i]);
  }
  for (std::size_t i = 0; i < kFreqFeatureCount; ++i) {
    EXPECT_DOUBLE_EQ(all[kTimeFeatureCount + i], q[i]);
  }
}

// Property: features are finite for a wide range of realistic inputs.
std::vector<double> noisy_tone(std::size_t seed, std::size_t n) {
  emoleak::util::Rng rng{seed};
  std::vector<double> x(n);
  const double f0 = rng.uniform(5.0, 200.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 9.81 +
           rng.uniform(0.001, 1.0) *
               std::sin(2.0 * std::numbers::pi * f0 * static_cast<double>(i) / 420.0) +
           0.01 * rng.normal();
  }
  return x;
}

class FeatureSanity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FeatureSanity, FiniteOnNoisyTones) {
  const std::vector<double> x = noisy_tone(GetParam(), 64 + GetParam() * 131);
  for (const double v : extract_features(x, 420.0)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FeatureSanity,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// A short min_region_s at a low sample rate lets the streaming detector
// close regions of a few samples, whose spectrum has only 3 or 4 bins;
// every feature must still be finite there.
class ShortRegionSanity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShortRegionSanity, FiniteOnShortRegions) {
  const std::vector<double> x = noisy_tone(GetParam(), GetParam());
  for (const double v : extract_features(x, 420.0)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShortRegionSanity, ::testing::Values(4, 5, 6));

}  // namespace
