// Amplitude-envelope estimation for speech-region detection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace emoleak::dsp {

/// Moving RMS over a window of `window_samples` (centered; edges use a
/// shrunken window). window_samples must be >= 1.
[[nodiscard]] std::vector<double> moving_rms(std::span<const double> signal,
                                             std::size_t window_samples);

}  // namespace emoleak::dsp
