// Table-II time- and frequency-domain features.
//
// The paper extracts 12 time-domain and 12 frequency-domain features
// from every detected speech region (raw, unfiltered accelerometer
// samples — §III-B2 shows filtering destroys them) and feeds them to
// Weka classifiers and a 1-D CNN. Frequency features follow the
// standard timbre-toolbox definitions (Krimphoff irregularity-K,
// Jensen irregularity-J, McAdams smoothness, sharpness in acum, ...).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "util/workspace.h"

namespace emoleak::features {

inline constexpr std::size_t kTimeFeatureCount = 12;
inline constexpr std::size_t kFreqFeatureCount = 12;
inline constexpr std::size_t kFeatureCount = kTimeFeatureCount + kFreqFeatureCount;

/// Names in extraction order (time features first).
[[nodiscard]] const std::vector<std::string>& feature_names();

/// 12 time-domain features of a region: Min, Max, Mean, StdDev,
/// Variance, Range, CV, Skewness, Kurtosis, Quantile25, Quantile50,
/// MeanCrossingRate. Requires a non-empty region.
[[nodiscard]] std::array<double, kTimeFeatureCount> time_features(
    std::span<const double> region);

/// 12 frequency-domain features from the magnitude spectrum of the
/// region: Energy, Entropy, FrequencyRatio, IrregularityK,
/// IrregularityJ, Sharpness, Smoothness, SpecCentroid, SpecStdDev,
/// SpecCrest, SpecSkewness, SpecKurt.
/// `split_hz` is the boundary used by FrequencyRatio (energy above vs
/// below; extraction uses 50 Hz, which separates the F0 band from
/// envelope energy). `ws` is the scratch arena for the DC-removed copy
/// and the magnitude spectrum (zero heap allocations once it is warm).
[[nodiscard]] std::array<double, kFreqFeatureCount> freq_features(
    std::span<const double> region, double sample_rate_hz, double split_hz,
    util::Workspace& ws);

/// Full 24-dimensional feature vector for one region. Spectral scratch
/// comes from the calling thread's workspace.
[[nodiscard]] std::vector<double> extract_features(std::span<const double> region,
                                                   double sample_rate_hz);

/// As above with an explicit scratch arena. Only the returned vector
/// itself is heap-allocated.
[[nodiscard]] std::vector<double> extract_features(std::span<const double> region,
                                                   double sample_rate_hz,
                                                   util::Workspace& ws);

}  // namespace emoleak::features
