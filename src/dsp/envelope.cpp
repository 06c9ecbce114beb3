#include "dsp/envelope.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace emoleak::dsp {

std::vector<double> moving_rms(std::span<const double> signal,
                               std::size_t window_samples) {
  if (window_samples == 0) {
    throw util::ConfigError{"moving_rms: window must be >= 1 sample"};
  }
  const std::size_t n = signal.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  // Prefix sums of squares for O(n) evaluation.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + signal[i] * signal[i];
  const std::size_t half = window_samples / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(i + window_samples - half, n);
    const double mean_sq = (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
    out[i] = std::sqrt(mean_sq);
  }
  return out;
}

}  // namespace emoleak::dsp
