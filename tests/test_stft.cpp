// Tests for STFT / spectrogram computation (dsp/stft.h).
#include "dsp/stft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace {

using emoleak::dsp::Spectrogram;
using emoleak::dsp::spectrogram_image;
using emoleak::dsp::stft;
using emoleak::dsp::StftConfig;

std::vector<double> sine(double freq_hz, double rate_hz, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) /
                    rate_hz);
  }
  return x;
}

TEST(StftConfigTest, ValidatesParameters) {
  StftConfig c;
  c.window_length = 0;
  EXPECT_THROW(c.validate(), emoleak::util::ConfigError);
  c = StftConfig{};
  c.hop = 0;
  EXPECT_THROW(c.validate(), emoleak::util::ConfigError);
}

TEST(StftTest, ShapeMatchesConfig) {
  StftConfig c;
  c.window_length = 64;
  c.hop = 16;
  const auto spec = stft(std::vector<double>(256, 0.0), 1000.0, c);
  EXPECT_EQ(spec.bins(), 33u);  // 64-point FFT -> 33 bins
  // Reflect padding adds 32 samples at each end: one frame per hop.
  EXPECT_EQ(spec.frames(), (256 + 64 - 64) / 16 + 1);
  c.window_length = 48;  // FFT size rounds up to 64 points
  EXPECT_EQ(stft(std::vector<double>(256, 0.0), 1000.0, c).bins(), 33u);
}

TEST(StftTest, SinePeaksAtCorrectBin) {
  StftConfig c;
  c.window_length = 64;
  c.hop = 16;
  const double rate = 400.0;
  const auto spec = stft(sine(100.0, rate, 800), rate, c);
  // Bin resolution = 400/64 = 6.25 Hz; 100 Hz -> bin 16.
  for (std::size_t f = 2; f + 2 < spec.frames(); ++f) {
    std::size_t peak = 0;
    for (std::size_t b = 0; b < spec.bins(); ++b) {
      if (spec.at(f, b) > spec.at(f, peak)) peak = b;
    }
    EXPECT_NEAR(spec.bin_frequency_hz(peak), 100.0, 7.0);
  }
}

TEST(StftTest, ShortSignalReflectPaddingIsSymmetric) {
  // Regression: for signals shorter than half a window the front pad
  // used to clamp to repeating signal[size-1] instead of reflecting
  // around the first sample. True reflect padding is symmetric, so with
  // a symmetric (Hann) window the spectrogram of the reversed signal
  // must be the frame-reversed spectrogram of the original.
  StftConfig c;
  c.window_length = 64;
  c.hop = 1;
  const std::vector<double> ramp{0.1, 0.9, -0.4, 0.7, 0.2};
  std::vector<double> reversed{ramp.rbegin(), ramp.rend()};
  const auto spec = stft(ramp, 100.0, c);
  const auto spec_rev = stft(reversed, 100.0, c);
  ASSERT_EQ(spec.frames(), spec_rev.frames());
  ASSERT_EQ(spec.bins(), spec_rev.bins());
  for (std::size_t f = 0; f < spec.frames(); ++f) {
    for (std::size_t b = 0; b < spec.bins(); ++b) {
      EXPECT_NEAR(spec.at(f, b), spec_rev.at(spec.frames() - 1 - f, b), 1e-9)
          << "frame " << f << " bin " << b;
    }
  }
}

TEST(StftTest, SingleSampleSignalCenterPadIsConstant) {
  // Reflecting around a single sample can only yield that sample.
  StftConfig c;
  c.window_length = 16;
  c.hop = 4;
  const auto spec = stft(std::vector<double>{2.5}, 100.0, c);
  ASSERT_GE(spec.frames(), 1u);
  // Every frame sees the same constant input, so all frames agree.
  for (std::size_t f = 1; f < spec.frames(); ++f) {
    for (std::size_t b = 0; b < spec.bins(); ++b) {
      EXPECT_NEAR(spec.at(f, b), spec.at(0, b), 1e-9);
    }
  }
}

TEST(StftTest, LongSignalPaddingUnchangedByReflectFix) {
  // Signals longer than half a window must produce the exact same
  // spectrogram as before the short-signal fix (pad indices only fold
  // when they run past the ends).
  StftConfig c;
  c.window_length = 16;
  c.hop = 4;
  const auto x = sine(20.0, 100.0, 64);
  const auto spec = stft(x, 100.0, c);
  // Spot-check against the clamped-index formula valid for long
  // signals: front pad i -> x[pad - i], back pad i -> x[n - 2 - i].
  std::vector<double> padded;
  const std::size_t pad = 8;
  for (std::size_t i = 0; i < pad; ++i) padded.push_back(x[pad - i]);
  padded.insert(padded.end(), x.begin(), x.end());
  for (std::size_t i = 0; i < pad; ++i) padded.push_back(x[x.size() - 2 - i]);
  // stft pads `padded` by another 8 samples per end, two hops: frame
  // f + 2 of its STFT windows the same samples as frame f of stft(x).
  const auto ref = stft(padded, 100.0, c);
  ASSERT_EQ(spec.frames() + 4, ref.frames());
  for (std::size_t f = 0; f < spec.frames(); ++f) {
    for (std::size_t b = 0; b < spec.bins(); ++b) {
      EXPECT_NEAR(spec.at(f, b), ref.at(f + 2, b), 1e-12);
    }
  }
}

TEST(StftTest, BinFrequenciesSpanNyquist) {
  StftConfig c;
  c.window_length = 64;
  const auto spec = stft(std::vector<double>(128, 0.0), 500.0, c);
  EXPECT_NEAR(spec.bin_frequency_hz(0), 0.0, 1e-12);
  EXPECT_NEAR(spec.bin_frequency_hz(spec.bins() - 1), 250.0, 1e-9);
}

TEST(StftTest, ShortSignalStillProducesOneFrame) {
  StftConfig c;
  c.window_length = 64;
  const auto spec = stft(std::vector<double>(10, 1.0), 100.0, c);
  EXPECT_GE(spec.frames(), 1u);
}

TEST(StftTest, EmptySignalProducesFrame) {
  // An odd window pads an empty signal to window_length - 1 samples,
  // short of one frame; it still gets the single zero frame.
  for (const std::size_t window : {std::size_t{64}, std::size_t{63}}) {
    StftConfig c;
    c.window_length = window;
    const auto spec = stft(std::vector<double>{}, 100.0, c);
    ASSERT_EQ(spec.frames(), 1u) << "window " << window;
    for (const double m : spec.data()) EXPECT_EQ(m, 0.0) << "window " << window;
  }
}

TEST(StftTest, InvalidRateThrows) {
  EXPECT_THROW((void)stft(std::vector<double>(64, 0.0), 0.0, StftConfig{}),
               emoleak::util::ConfigError);
}

TEST(SpectrogramTest, AtThrowsOutOfRange) {
  StftConfig c;
  const auto spec = stft(std::vector<double>(256, 0.0), 100.0, c);
  EXPECT_THROW((void)spec.at(spec.frames(), 0), emoleak::util::DataError);
  EXPECT_THROW((void)spec.at(0, spec.bins()), emoleak::util::DataError);
}

TEST(SpectrogramTest, ToDbBoundedByFloor) {
  StftConfig c;
  const auto spec = stft(sine(20.0, 100.0, 400), 100.0, c);
  const auto db = spec.to_db(-80.0);
  for (const double v : db) {
    EXPECT_GE(v, -80.0);
    EXPECT_LE(v, 0.0 + 1e-9);
  }
}

TEST(SpectrogramTest, ToDbMaxIsZero) {
  StftConfig c;
  const auto spec = stft(sine(20.0, 100.0, 400), 100.0, c);
  const auto db = spec.to_db();
  double max_db = -1e9;
  for (const double v : db) max_db = std::max(max_db, v);
  EXPECT_NEAR(max_db, 0.0, 1e-9);
}

TEST(SpectrogramImageTest, SizeAndRange) {
  StftConfig c;
  const auto spec = stft(sine(30.0, 200.0, 1000), 200.0, c);
  const auto img = spectrogram_image(spec, 32, 32);
  ASSERT_EQ(img.size(), 32u * 32u);
  for (const double v : img) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SpectrogramImageTest, PureToneBrightensOneRowBand) {
  StftConfig c;
  c.window_length = 64;
  const double rate = 320.0;
  const auto spec = stft(sine(40.0, rate, 3200), rate, c);
  const auto img = spectrogram_image(spec, 16, 16);
  // 40 Hz / 160 Hz Nyquist = 0.25 up the frequency axis; with row 0 at
  // the top (high frequency), the bright row is near row 12.
  std::size_t brightest_row = 0;
  double best = -1.0;
  for (std::size_t r = 0; r < 16; ++r) {
    double row_sum = 0.0;
    for (std::size_t col = 0; col < 16; ++col) row_sum += img[r * 16 + col];
    if (row_sum > best) {
      best = row_sum;
      brightest_row = r;
    }
  }
  EXPECT_NEAR(static_cast<double>(brightest_row), 12.0, 1.5);
}

TEST(SpectrogramImageTest, ZeroSizeThrows) {
  StftConfig c;
  const auto spec = stft(std::vector<double>(64, 0.0), 100.0, c);
  EXPECT_THROW((void)spectrogram_image(spec, 0, 32),
               emoleak::util::ConfigError);
}

// Property: image is well-formed for many sizes.
class SpectrogramImageSizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SpectrogramImageSizes, WellFormed) {
  const auto [w, h] = GetParam();
  StftConfig c;
  c.window_length = 32;
  c.hop = 8;
  const auto spec = stft(sine(25.0, 150.0, 600), 150.0, c);
  const auto img = spectrogram_image(spec, w, h);
  EXPECT_EQ(img.size(), w * h);
  for (const double v : img) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SpectrogramImageSizes,
    ::testing::Values(std::tuple<std::size_t, std::size_t>{1, 1},
                      std::tuple<std::size_t, std::size_t>{8, 8},
                      std::tuple<std::size_t, std::size_t>{32, 32},
                      std::tuple<std::size_t, std::size_t>{64, 16},
                      std::tuple<std::size_t, std::size_t>{5, 97}));

TEST(StftTest, MagnitudesIntoBufferMatchesAllocatingPath) {
  StftConfig c;
  const std::vector<double> x = sine(40.0, 500.0, 600);
  const Spectrogram spec = stft(x, 500.0, c);

  emoleak::util::Workspace ws;
  const emoleak::dsp::StftShape shape = emoleak::dsp::stft_shape(x.size(), c);
  ASSERT_EQ(shape.frames, spec.frames());
  ASSERT_EQ(shape.bins, spec.bins());
  std::vector<double> mags(shape.cells());
  emoleak::dsp::stft_magnitudes(x, c, mags, ws);
  for (std::size_t i = 0; i < mags.size(); ++i) {
    ASSERT_DOUBLE_EQ(mags[i], spec.data()[i]) << "cell " << i;
  }
}

TEST(StftTest, SteadyStateIsWorkspaceAllocationFree) {
  StftConfig c;
  const std::vector<double> x = sine(25.0, 500.0, 4200);
  emoleak::util::Workspace ws;
  const emoleak::dsp::StftShape shape = emoleak::dsp::stft_shape(x.size(), c);
  std::vector<double> mags(shape.cells());
  emoleak::dsp::stft_magnitudes(x, c, mags, ws);  // warm-up sizes the arena
  emoleak::dsp::stft_magnitudes(x, c, mags, ws);
  const std::size_t warm = ws.grow_count();
  for (int iter = 0; iter < 10; ++iter) {
    emoleak::dsp::stft_magnitudes(x, c, mags, ws);
  }
  EXPECT_EQ(ws.grow_count(), warm);
}

}  // namespace
