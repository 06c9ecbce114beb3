// The Hann analysis window of the STFT / spectrogram front end.
#pragma once

#include <span>

namespace emoleak::dsp {

/// Writes a periodic (DFT-even, the spectrogram convention) Hann window
/// of length `out.size()` into caller-provided storage, so the STFT
/// path stays allocation-free. A length-1 window is {1.0}; length 0
/// throws util::DataError.
void fill_hann(std::span<double> out);

}  // namespace emoleak::dsp
