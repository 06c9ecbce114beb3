// Descriptive statistics used throughout feature extraction.
//
// The Table-II time-domain features (min/max/mean/stddev/variance/
// range/CV/skewness/kurtosis/quantiles/mean-crossing-rate) are built on
// these primitives.
#pragma once

#include <cstddef>
#include <span>

namespace emoleak::dsp {

/// Streaming-friendly summary of a sample (single pass + sorted-copy
/// quantiles on demand).
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double variance = 0.0;   ///< population variance
  double stddev = 0.0;
  double skewness = 0.0;   ///< population skewness (0 if stddev == 0)
  double kurtosis = 0.0;   ///< population excess kurtosis (0 if stddev == 0)
};

/// Computes the full summary in one pass (two for the moments).
/// Throws util::DataError on an empty span.
[[nodiscard]] Summary summarize(std::span<const double> x);

[[nodiscard]] double mean(std::span<const double> x);

/// Linear-interpolated quantile, q in [0, 1]. Sorts a copy.
[[nodiscard]] double quantile(std::span<const double> x, double q);

/// quantile() of a sample already sorted ascending, without the copy
/// and the sort: quantile(x, q) sorts a copy of x and calls this, so
/// several quantiles read from one sorted copy cost one sort.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Rate at which the signal crosses its own mean, per sample
/// (in [0, 1]); the paper's MeanCrossingRate feature.
[[nodiscard]] double mean_crossing_rate(std::span<const double> x);

/// Root mean square.
[[nodiscard]] double rms(std::span<const double> x);

}  // namespace emoleak::dsp
