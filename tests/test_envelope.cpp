// Tests for the moving-RMS envelope (dsp/envelope.h).
#include "dsp/envelope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace {

using emoleak::dsp::moving_rms;

TEST(MovingRmsTest, ConstantSignalGivesConstantRms) {
  const std::vector<double> x(100, 3.0);
  const auto rms = moving_rms(x, 10);
  for (const double v : rms) EXPECT_NEAR(v, 3.0, 1e-12);
}

TEST(MovingRmsTest, SineRmsNearInvSqrt2) {
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 20.0 * static_cast<double>(i) / 1000.0);
  }
  const auto rms = moving_rms(x, 200);
  EXPECT_NEAR(rms[500], 1.0 / std::sqrt(2.0), 0.02);
}

TEST(MovingRmsTest, WindowOneIsAbsoluteValue) {
  const std::vector<double> x{-2.0, 3.0, -4.0};
  const auto rms = moving_rms(x, 1);
  EXPECT_NEAR(rms[0], 2.0, 1e-12);
  EXPECT_NEAR(rms[1], 3.0, 1e-12);
  EXPECT_NEAR(rms[2], 4.0, 1e-12);
}

TEST(MovingRmsTest, LocalizedBurstProducesLocalizedPeak) {
  std::vector<double> x(1000, 0.0);
  for (std::size_t i = 480; i < 520; ++i) x[i] = 1.0;
  const auto rms = moving_rms(x, 40);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < rms.size(); ++i) {
    if (rms[i] > rms[peak]) peak = i;
  }
  EXPECT_NEAR(static_cast<double>(peak), 500.0, 30.0);
  EXPECT_LT(rms[100], 0.01);
  EXPECT_LT(rms[900], 0.01);
}

TEST(MovingRmsTest, ZeroWindowThrows) {
  EXPECT_THROW((void)moving_rms(std::vector<double>(5, 1.0), 0),
               emoleak::util::ConfigError);
}

TEST(MovingRmsTest, EmptySignalOk) {
  EXPECT_TRUE(moving_rms(std::vector<double>{}, 5).empty());
}

}  // namespace
