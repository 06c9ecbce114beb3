// Tests for the Hann analysis window (dsp/window.h).
#include "dsp/window.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace {

std::vector<double> hann(std::size_t length) {
  std::vector<double> w(length);
  emoleak::dsp::fill_hann(w);
  return w;
}

TEST(WindowTest, HannStartsAtZero) {
  const auto w = hann(64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
}

TEST(WindowTest, HannPeaksAtCenter) {
  const auto w = hann(64);
  EXPECT_NEAR(w[32], 1.0, 1e-12);  // periodic window peaks at N/2
}

TEST(WindowTest, PeriodicSymmetry) {
  // A periodic (DFT-even) window satisfies w[i] == w[N - i] for i >= 1.
  const auto w = hann(32);
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_NEAR(w[i], w[32 - i], 1e-12) << "i=" << i;
  }
}

TEST(WindowTest, ValuesWithinUnitRange) {
  for (const std::size_t len : {2u, 7u, 33u, 128u}) {
    for (const double v : hann(len)) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(WindowTest, LengthOneIsUnity) {
  const auto w = hann(1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(WindowTest, ZeroLengthThrows) {
  EXPECT_THROW(emoleak::dsp::fill_hann({}), emoleak::util::DataError);
}

TEST(WindowTest, HannEnergyIsThreeEighthsN) {
  // Sum of hann^2 over a periodic window = 3N/8.
  double energy = 0.0;
  for (const double v : hann(256)) energy += v * v;
  EXPECT_NEAR(energy, 3.0 * 256.0 / 8.0, 1e-9);
}

}  // namespace
