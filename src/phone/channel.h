// Speaker -> chassis -> accelerometer conduction channel.
//
// Models the physics the attack exploits (paper §II-C): the speaker and
// the IMU share the motherboard, so driver reaction forces propagate as
// structure-borne vibration. The channel is: driver-excursion low-pass
// (force tracks cone displacement), a bank of resonant chassis modes
// plus a broadband direct path, a per-speaker conduction gain, then
// anti-aliased decimation to the accelerometer's sampling rate with
// sensor noise and quantization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phone/profile.h"
#include "util/rng.h"

namespace emoleak::phone {

enum class SpeakerKind {
  kLoudspeaker,  ///< bottom loudspeaker at max volume (table-top scenario)
  kEarSpeaker,   ///< top earpiece at conversational volume (handheld)
};

enum class Posture {
  kTableTop,  ///< phone resting on a wooden table: only self-vibration
  kHandheld,  ///< held in hand: low-frequency body/hand motion noise
};

/// Continuous vibration at audio rate (before accelerometer sampling).
/// Mostly an implementation detail; exposed for tests and analysis.
[[nodiscard]] std::vector<double> conduct(std::span<const double> audio,
                                          double audio_rate_hz,
                                          const PhoneProfile& profile,
                                          SpeakerKind speaker);

/// Low-frequency handheld motion noise: superposition of slow hand
/// tremor / body sway processes (0.3 - 8 Hz) with occasional transient
/// bumps. Amplitude is in m/s^2 at the accelerometer output rate.
[[nodiscard]] std::vector<double> handheld_noise(std::size_t samples,
                                                 double rate_hz,
                                                 util::Rng& rng);

/// The accelerometer's sampling chain *without* noise/quantization:
/// gentle internal low-pass (not brick-wall — above-Nyquist content
/// folds in, as on real MEMS parts) followed by sample-and-hold
/// decimation to the profile's rate.
[[nodiscard]] std::vector<double> accel_sampling_chain(
    std::span<const double> vibration, double audio_rate_hz,
    const PhoneProfile& profile);

/// The rate the attacker actually receives samples at: the software
/// cap when active, else the native ODR.
[[nodiscard]] double effective_accel_rate(const PhoneProfile& profile) noexcept;

}  // namespace emoleak::phone
