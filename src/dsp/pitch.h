// Fundamental-frequency (F0) estimation.
//
// The emotion cues EmoLeak keys on live mostly in the F0 trajectory,
// which survives the accelerometer channel (directly for male voices,
// folded for female voices — see phone/channel.h). This module
// provides an autocorrelation pitch tracker usable on both audio and
// accelerometer streams; bench_ext_pitch uses it to show the F0
// contour is recoverable from the vibration side channel.
//
// Three correlator kernels back the tracker, picked per frame by a
// work estimate (detail::correlator_for):
//  - kDirect: the O(lags·N) direct sum. Small frames (the
//    accelerometer rates, where the lag grid is tens of entries) stay
//    here, bitwise-identical to the pre-overhaul implementation, so
//    seed-corpus outputs are unchanged by construction.
//  - kFast: the same direct numerator with the serial accumulation
//    chain broken into independent partial sums (vectorizable) and the
//    per-lag energy denominators taken from prefix sums of x².
//  - kFft: Wiener–Khinchin for very large lag grids — the
//    autocorrelation numerator is one rfft/irfft pair over the power
//    spectrum (O(N log N) per frame), denominators again via prefix
//    sums.
// test_pitch holds a direct-sum estimator as the parity oracle: every
// kernel agrees with it to ~1e-9 in F0 and makes identical
// voiced/unvoiced decisions, and kDirect frames match it bit for bit.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/workspace.h"

namespace emoleak::dsp {

struct PitchConfig {
  double min_hz = 50.0;        ///< search floor
  double max_hz = 400.0;       ///< search ceiling
  double frame_s = 0.08;       ///< analysis frame length
  double hop_s = 0.02;         ///< frame hop
  double voicing_threshold = 0.35;  ///< min normalized autocorr peak

  void validate() const;
};

/// One frame of the pitch track.
struct PitchFrame {
  double time_s = 0.0;
  std::optional<double> f0_hz;  ///< nullopt = unvoiced / no pitch found
};

/// Estimates F0 on one frame via the normalized autocorrelation method
/// (center-clipped). Returns nullopt when no peak clears the voicing
/// threshold inside [min_hz, max_hz].
[[nodiscard]] std::optional<double> estimate_pitch(
    std::span<const double> frame, double sample_rate_hz,
    const PitchConfig& config = {});

/// Full pitch track over a signal. Validates the config once and reuses
/// one scratch arena across frames: after the first frame has warmed
/// the arena, tracking performs zero heap allocations beyond the
/// returned vector itself.
[[nodiscard]] std::vector<PitchFrame> track_pitch(
    std::span<const double> signal, double sample_rate_hz,
    const PitchConfig& config = {});

/// Summary statistics of the voiced portion of a track: (mean, stddev)
/// in Hz; returns nullopt when nothing is voiced.
[[nodiscard]] std::optional<std::pair<double, double>> pitch_statistics(
    const std::vector<PitchFrame>& track);

namespace detail {

/// estimate_pitch with validation hoisted out and scratch drawn from
/// `ws` (scoped internally). track_pitch calls this per frame.
[[nodiscard]] std::optional<double> estimate_pitch_validated(
    std::span<const double> frame, double sample_rate_hz,
    const PitchConfig& config, util::Workspace& ws);

/// Which autocorrelation kernel a frame of `n` samples with lag range
/// [min_lag, max_lag] dispatches to (see the module comment). Exposed
/// so the parity tests can assert each kernel is actually exercised.
enum class Correlator { kDirect, kFast, kFft };
[[nodiscard]] Correlator correlator_for(std::size_t n, std::size_t min_lag,
                                        std::size_t max_lag) noexcept;

}  // namespace detail

}  // namespace emoleak::dsp
