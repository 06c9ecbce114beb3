// Short-time Fourier transform and spectrogram computation.
//
// The EmoLeak pipeline renders each detected speech region of the
// accelerometer trace as a spectrogram image (paper §III-B3, Fig. 2/3)
// and derives frequency-domain features from STFT magnitudes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/window.h"
#include "util/workspace.h"

namespace emoleak::dsp {

/// Frames are Hann-windowed, zero-padded to an FFT of
/// next_pow2(window_length) points, and taken over the signal
/// reflect-padded by window_length / 2 on both ends, so frame f centers
/// on sample f * hop (librosa's `center=True`).
struct StftConfig {
  std::size_t window_length = 64;   ///< samples per analysis frame
  std::size_t hop = 16;             ///< samples between frames

  /// Validates invariants; throws util::ConfigError on violation.
  void validate() const;
};

/// A magnitude spectrogram: `frames x bins` row-major, with the sample
/// rate recorded so bins map to physical frequencies.
class Spectrogram {
 public:
  Spectrogram(std::vector<double> magnitudes, std::size_t frames,
              std::size_t bins, double sample_rate_hz);

  [[nodiscard]] std::size_t frames() const noexcept { return frames_; }
  [[nodiscard]] std::size_t bins() const noexcept { return bins_; }

  /// Magnitude at (frame, bin). Bounds-checked.
  [[nodiscard]] double at(std::size_t frame, std::size_t bin) const;

  /// Center frequency of a bin, in Hz.
  [[nodiscard]] double bin_frequency_hz(std::size_t bin) const noexcept;

  /// Converts magnitudes to decibels relative to the max magnitude,
  /// clamped below at `floor_db` (a negative number, e.g. -80).
  [[nodiscard]] std::vector<double> to_db(double floor_db = -80.0) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept { return mags_; }

 private:
  std::vector<double> mags_;
  std::size_t frames_;
  std::size_t bins_;
  double sample_rate_hz_;
};

/// Frame/bin geometry of the STFT of a signal of `signal_len` samples.
struct StftShape {
  std::size_t frames = 0;
  std::size_t bins = 0;

  [[nodiscard]] std::size_t cells() const noexcept { return frames * bins; }
};

/// Geometry `stft` will produce for a given signal length and config.
[[nodiscard]] StftShape stft_shape(std::size_t signal_len,
                                   const StftConfig& config);

/// Zero-allocation STFT core: writes `stft_shape(...).cells()` magnitudes
/// (row-major frames x bins) into `mags`. Padding, frame windows, and
/// FFT scratch all come from `ws`, so a warm workspace makes repeated
/// calls allocation-free (asserted in tests via Workspace::grow_count).
void stft_magnitudes(std::span<const double> signal, const StftConfig& config,
                     std::span<double> mags, util::Workspace& ws);

/// Computes the magnitude STFT of `signal`. Scratch comes from the
/// calling thread's workspace (see util::thread_workspace).
[[nodiscard]] Spectrogram stft(std::span<const double> signal,
                               double sample_rate_hz, const StftConfig& config);

/// As above with an explicit scratch arena.
[[nodiscard]] Spectrogram stft(std::span<const double> signal,
                               double sample_rate_hz, const StftConfig& config,
                               util::Workspace& ws);

/// Downsamples a spectrogram to a fixed `width x height` image in
/// [0, 1], matching the paper's 32x32 CNN input (§IV-C1). Uses mean
/// pooling over rectangular cells of the dB-scaled spectrogram.
[[nodiscard]] std::vector<double> spectrogram_image(const Spectrogram& spec,
                                                    std::size_t width,
                                                    std::size_t height,
                                                    double floor_db = -80.0);

/// The `size x size` spectrogram image of one raw accelerometer region:
/// subtract the region's mean (the gravity offset would otherwise
/// saturate the dB scale), take the STFT, render the image. The offline
/// pipeline, the streaming attack and fingerprint training all render
/// through this, so a served region lands in the training input space.
/// The centered copy and the STFT scratch come from `ws`.
[[nodiscard]] std::vector<double> region_image(std::span<const double> region,
                                               double sample_rate_hz,
                                               const StftConfig& config,
                                               std::size_t size,
                                               util::Workspace& ws);

}  // namespace emoleak::dsp
