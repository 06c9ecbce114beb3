// Touchtone-style capture-side mitigations.
//
// The defenses the paper's discussion section (and Touchtone/OS
// vendors) propose against motion-sensor eavesdropping act at the
// *capture* point, before any app sees samples: cap the sensor's
// sample rate, and/or low-pass the signal below the speech band. This
// module models both as a streaming filter so the mitigation study can
// sweep their strength and measure per-task accuracy loss:
//
//   raw 420 Hz samples -> Butterworth low-pass -> nearest-sample
//   decimation to target_rate_hz -> what the "attacker app" receives
//
// MitigationFilter is stateful and *chunk-invariant*: feeding a signal
// in any chunking yields bit-identical output (the determinism contract
// the serving layer is built on, and what test_tasks pins down). The
// decimator reproduces dsp::resample_nearest's sample selection —
// out[k] = in[round(k * in_rate / out_rate)] — incrementally, so the
// offline and streaming paths agree exactly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/filter.h"
#include "phone/recorder.h"

namespace emoleak::tasks {

struct MitigationConfig {
  /// Low-pass cutoff in Hz; 0 disables filtering. Touchtone-style
  /// defenses cut around 20-50 Hz, well below the speech band the
  /// attack feeds on.
  double lowpass_hz = 0.0;
  int lowpass_order = 4;  ///< Butterworth order (even)
  /// Output sample rate; 0 keeps the input rate. OS rate caps are the
  /// most deployable mitigation (Android caps ungranted sensors at
  /// 200 Hz; stronger caps go lower).
  double target_rate_hz = 0.0;

  /// True when the config changes nothing (no filter, no rate change).
  [[nodiscard]] bool is_noop() const noexcept {
    return lowpass_hz <= 0.0 && target_rate_hz <= 0.0;
  }

  void validate(double input_rate_hz) const;
};

class MitigationFilter {
 public:
  MitigationFilter(MitigationConfig config, double input_rate_hz);

  /// Filters + decimates one chunk; returns the mitigated samples that
  /// fall within it (possibly none when decimating). Chunk-invariant:
  /// concatenating the outputs over any chunking of a signal equals
  /// one whole-signal call.
  [[nodiscard]] std::vector<double> push(std::span<const double> samples);

  [[nodiscard]] double output_rate_hz() const noexcept { return out_rate_; }

 private:
  MitigationConfig config_;
  double in_rate_ = 0.0;
  double out_rate_ = 0.0;
  dsp::BiquadCascade lowpass_;
  bool use_lowpass_ = false;
  bool decimate_ = false;
  std::size_t in_index_ = 0;   ///< absolute input sample counter
  std::size_t out_index_ = 0;  ///< next output sample to emit
};

/// Applies the mitigation to a whole recording: accel is filtered +
/// resampled, rate_hz becomes the mitigated rate, and the playback
/// schedule's sample indices are rescaled so core::label_regions still
/// aligns regions with ground truth. A no-op config returns the input
/// unchanged.
[[nodiscard]] phone::Recording apply_mitigation(const phone::Recording& recording,
                                                const MitigationConfig& config);

}  // namespace emoleak::tasks
