// Tests for Table-II feature extraction (features/features.h).
#include "features/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>
#include <vector>

#include "dsp/stats.h"
#include "dsp/stft.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::features::extract_features;
using emoleak::features::feature_names;
using emoleak::features::kFeatureCount;
using emoleak::features::kFreqFeatureCount;
using emoleak::features::kTimeFeatureCount;
using emoleak::features::time_features;

/// The frequency features at the 50 Hz split extraction uses.
std::array<double, kFreqFeatureCount> freq_features(
    std::span<const double> region, double rate_hz) {
  return emoleak::features::freq_features(region, rate_hz, 50.0,
                                          emoleak::util::thread_workspace());
}

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

// time_features selects q25 and q50 (nth_element, upper neighbour as
// the minimum above) instead of sorting; both must carry the bits of
// a full sort read through dsp::quantile_sorted. Ties and +-0 mixes
// are where a selection could pick a different element than the sort:
// equal values are interchangeable, and the interpolation turns every
// mix of zero signs into +0.
TEST(TimeFeaturesTest, SelectionQuantilesMatchSortBitForBit) {
  emoleak::util::Rng rng{91};
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 70; ++n) sizes.push_back(n);
  sizes.push_back(420);
  sizes.push_back(840);
  for (const std::size_t n : sizes) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<double> x(n);
      for (double& v : x) {
        if (shape == 0) {  // continuous
          v = rng.normal();
        } else if (shape == 1) {  // heavily tied: 4 distinct levels
          v = 0.5 * static_cast<double>(rng.uniform_int(4)) - 0.5;
        } else {  // +0, -0 and a few nonzero values around them
          const std::uint64_t pick = rng.uniform_int(4);
          v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : 0.01 * rng.normal();
        }
      }
      std::vector<double> sorted = x;
      std::sort(sorted.begin(), sorted.end());
      const auto f = time_features(x);
      const double q25 = emoleak::dsp::quantile_sorted(sorted, 0.25);
      const double q50 = emoleak::dsp::quantile_sorted(sorted, 0.50);
      EXPECT_EQ(std::memcmp(&f[9], &q25, sizeof q25), 0)
          << "n=" << n << " shape=" << shape << " q25 " << f[9] << " vs "
          << q25;
      EXPECT_EQ(std::memcmp(&f[10], &q50, sizeof q50), 0)
          << "n=" << n << " shape=" << shape << " q50 " << f[10] << " vs "
          << q50;
    }
  }
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

// A live scrape shows Bluestein plan churn through two relaxed
// counters: a region length featurized for the first time builds one
// plan, and the same length again hits it.
TEST(ExtractFeaturesTest, BluesteinCountersTallyBuildThenHit) {
  emoleak::obs::Registry& registry = emoleak::obs::Registry::instance();
  const emoleak::obs::Counter& built =
      registry.counter("dsp.bluestein.plans_built");
  const emoleak::obs::Counter& hits =
      registry.counter("dsp.bluestein.plan_hits");
  const std::vector<double> x = sine(7.0, 420.0, 733);  // a fresh length
  const std::uint64_t built0 = built.value();
  const std::uint64_t hits0 = hits.value();
  (void)extract_features(x, 420.0);
  (void)extract_features(x, 420.0);
  EXPECT_EQ(built.value(), built0 + 1);
  EXPECT_EQ(hits.value(), hits0 + 1);
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

// FNV-1a-64 over the object bytes of a sequence of doubles: a compact
// fingerprint of every output bit.
std::uint64_t fnv1a64(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : xs) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden digests pin the featurize layer across commits: the 24
// Table-II features and the 32x32 spectrogram image (window 64, hop 8)
// of one noisy tone per region length. A change to the FFT, the
// spectral features or the quantiles that moves any output bit fails
// here. The constants hold for this toolchain and libm: the inputs
// call sin, log and sqrt, the spectrum cos and sin, and the features
// log2, log10 and sqrt. A change that means to move bits re-pins them
// and says so.
struct GoldenRegion {
  std::size_t n;
  std::uint64_t features;
  std::uint64_t image;
};

TEST(GoldenDigestTest, FeaturesAndImagePinnedAcrossCommits) {
  emoleak::dsp::StftConfig stft_config;
  stft_config.window_length = 64;
  stft_config.hop = 8;
  for (const GoldenRegion g : {
           GoldenRegion{8, 0x4628069c9d76ee03ULL,
                        0xc582c64dac4f9565ULL},
           GoldenRegion{16, 0x81ad63fb212e50dbULL,
                        0x0cfd6697907c3693ULL},
           GoldenRegion{32, 0x62b915a83142fd48ULL,
                        0x895d205ada2e89caULL},
           GoldenRegion{64, 0x18a8b2389d424fb9ULL,
                        0x71b5a36dbbcde590ULL},
           GoldenRegion{128, 0xc9cb8096ba981716ULL,
                        0x9ad7135540bd96eaULL},
           GoldenRegion{256, 0x3aefc48ee0f362d5ULL,
                        0xd07b6b9d78613394ULL},
           GoldenRegion{512, 0xf71413c5ec6b8253ULL,
                        0x73547d3b630f4e75ULL},
           GoldenRegion{1024, 0xe39dde6a52e53dc6ULL,
                        0xff6d799890de51c0ULL},
           GoldenRegion{2048, 0xd468d9e89c60988eULL,
                        0xcf3f1cbe49e3fc25ULL},
           GoldenRegion{4096, 0xc593b6c0200e89ddULL,
                        0xd1345d6a8aa38c2aULL},
           GoldenRegion{5, 0x3b0029563a19bcfbULL,
                        0x2265caeac88116a5ULL},
           GoldenRegion{100, 0x925d7ece7d71f7eaULL,
                        0x6c0ed1a406f76347ULL},
           GoldenRegion{257, 0x825236af52290ac6ULL,
                        0xfccdf75cfa4aeeb8ULL},
           GoldenRegion{420, 0x1aeb02a0f4df26daULL,
                        0xdf9d6aab42c913c1ULL},
           GoldenRegion{631, 0xfd654e142e795521ULL,
                        0xfa155238e65fe7f3ULL},
           GoldenRegion{840, 0x859ea7041b72e096ULL,
                        0xc85d3467bd2982ddULL},
           GoldenRegion{1000, 0x5c2c14648be5b830ULL,
                        0x9a575bbd408f4646ULL},
           GoldenRegion{1777, 0xa118f9376275db08ULL,
                        0x24220d45ddb596c1ULL},
       }) {
    const std::vector<double> x = noisy_tone(7000 + g.n, g.n);
    const std::uint64_t features = fnv1a64(extract_features(x, 420.0));
    const std::uint64_t image = fnv1a64(emoleak::dsp::spectrogram_image(
        emoleak::dsp::stft(x, 420.0, stft_config), 32, 32));
    EXPECT_EQ(features, g.features)
        << "n=" << g.n << " features=0x" << std::hex << features;
    EXPECT_EQ(image, g.image) << "n=" << g.n << " image=0x" << std::hex << image;
  }
}

// The region image every route renders through (DC-center, STFT,
// 32x32 image; window 64, hop 8) on the same kind of noisy tone, which
// carries a 9.81 gravity offset. The digests were computed from the
// three calls the offline pipeline, the streaming attack and
// fingerprint training each made before dsp::region_image existed:
// mean-centering a copy, dsp::stft, dsp::spectrogram_image.
TEST(GoldenDigestTest, RegionImagePinnedAcrossCommits) {
  emoleak::dsp::StftConfig stft_config;
  stft_config.window_length = 64;
  stft_config.hop = 8;
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {5, 0xbe550c5301f2e9e5ULL},    {8, 0x50bd4a68c8704485ULL},
      {64, 0x8bd4bcc8c6dccaedULL},   {100, 0xe74573bb35f4c8c3ULL},
      {420, 0x7e8180aa6e1958b6ULL},  {631, 0x24975d0421aeaff6ULL},
      {1000, 0xc25c186f1f6881a8ULL}, {2048, 0x16066e7c55b1a161ULL},
      {2520, 0xfa34837839a2480dULL},
  };
  for (const auto& [n, digest] : golden) {
    const std::vector<double> x = noisy_tone(9000 + n, n);
    const std::uint64_t image = fnv1a64(emoleak::dsp::region_image(
        x, 420.0, stft_config, 32, emoleak::util::thread_workspace()));
    EXPECT_EQ(image, digest) << "n=" << n << " image=0x" << std::hex << image;
  }
}

}  // namespace
