#include "phone/channel.h"

#include <array>
#include <cmath>

#include "dsp/filter.h"
#include "dsp/resample.h"

namespace emoleak::phone {

std::vector<double> conduct(std::span<const double> audio, double audio_rate_hz,
                            const PhoneProfile& profile, SpeakerKind speaker) {
  profile.validate();
  const double gain = speaker == SpeakerKind::kLoudspeaker
                          ? profile.loudspeaker_gain
                          : profile.ear_speaker_gain;

  // Driver excursion: force follows cone displacement, which rolls off
  // above the excursion corner. Second-order low-pass. The earpiece's
  // corner is much lower (see PhoneProfile::ear_rolloff_hz).
  const bool is_loud = speaker == SpeakerKind::kLoudspeaker;
  const double rolloff =
      is_loud ? profile.speaker_rolloff_hz : profile.ear_rolloff_hz;
  const int rolloff_order = is_loud ? 2 : profile.ear_rolloff_order;
  dsp::BiquadCascade excursion = dsp::BiquadCascade::butterworth_lowpass(
      rolloff_order, std::min(rolloff, 0.45 * audio_rate_hz), audio_rate_hz);
  const std::vector<double> force = excursion.filter(audio);

  // Chassis: broadband direct path + resonant modes.
  std::vector<dsp::Biquad> modes;
  modes.reserve(profile.resonances.size());
  for (const Resonance& r : profile.resonances) {
    if (r.frequency_hz < 0.45 * audio_rate_hz) {
      modes.push_back(dsp::design_bandpass(r.frequency_hz, audio_rate_hz, r.q));
    }
  }
  std::vector<std::array<double, 2>> state(modes.size(), {0.0, 0.0});

  std::vector<double> out(force.size());
  for (std::size_t i = 0; i < force.size(); ++i) {
    const double x = force[i];
    double y = profile.direct_path_gain * x;
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const dsp::Biquad& s = modes[m];
      auto& [z1, z2] = state[m];
      const double ym = s.b0 * x + z1;
      z1 = s.b1 * x - s.a1 * ym + z2;
      z2 = s.b2 * x - s.a2 * ym;
      y += profile.resonances[m].gain * ym;
    }
    out[i] = gain * y;
  }
  return out;
}

std::vector<double> handheld_noise(std::size_t samples, double rate_hz,
                                   util::Rng& rng) {
  std::vector<double> noise(samples, 0.0);
  if (samples == 0) return noise;

  // Three AR(1) processes tuned to tremor (~6 Hz), hand adjustment
  // (~1.5 Hz) and body sway (~0.4 Hz) bands.
  struct Band {
    double corner_hz;
    double sigma;  // m/s^2 RMS
  };
  // The last band is very slow posture drift: the hand/arm pose wanders
  // over tens of seconds, so the DC level the amplitude features see is
  // correlated over whole playback blocks (the effect behind the
  // paper's Table I: min/mean/max carry block-level information that a
  // 1 Hz high-pass filter destroys).
  const Band bands[] = {
      {6.0, 0.003}, {1.5, 0.006}, {0.4, 0.009}, {0.01, 0.05}};
  for (const Band& band : bands) {
    const double alpha = std::exp(-2.0 * 3.141592653589793 * band.corner_hz / rate_hz);
    const double drive = band.sigma * std::sqrt(1.0 - alpha * alpha);
    double v = 0.0;
    for (std::size_t i = 0; i < samples; ++i) {
      v = alpha * v + drive * rng.normal();
      noise[i] += v;
    }
  }

  // Occasional grip-shift transients: exponential-decay bumps at an
  // average rate of one per ~8 seconds.
  const double bump_prob = 1.0 / (8.0 * rate_hz);
  for (std::size_t i = 0; i < samples; ++i) {
    if (rng.bernoulli(bump_prob)) {
      const double amp = rng.uniform(0.05, 0.25);
      const double decay_samples = 0.15 * rate_hz;
      for (std::size_t j = i; j < samples && j < i + static_cast<std::size_t>(5 * decay_samples); ++j) {
        noise[j] += amp * std::exp(-static_cast<double>(j - i) / decay_samples);
      }
    }
  }
  return noise;
}

std::vector<double> accel_sampling_chain(std::span<const double> vibration,
                                         double audio_rate_hz,
                                         const PhoneProfile& profile) {
  profile.validate();
  const double cutoff =
      std::min(profile.internal_lpf_cutoff_factor * 0.5 * profile.accel_rate_hz,
               0.49 * audio_rate_hz);
  dsp::BiquadCascade lpf = dsp::BiquadCascade::butterworth_lowpass(
      profile.internal_lpf_order, cutoff, audio_rate_hz);
  const std::vector<double> filtered = lpf.filter(vibration);
  std::vector<double> native =
      dsp::resample_nearest(filtered, audio_rate_hz, profile.accel_rate_hz);
  if (profile.software_cap_hz > 0.0 &&
      profile.software_cap_hz < profile.accel_rate_hz) {
    // Android's software rate limit decimates the native stream with a
    // proper digital anti-aliasing filter (paper SVI-A).
    return dsp::decimate(native, profile.accel_rate_hz, profile.software_cap_hz,
                         /*filter_order=*/4);
  }
  return native;
}

double effective_accel_rate(const PhoneProfile& profile) noexcept {
  return profile.software_cap_hz > 0.0 &&
                 profile.software_cap_hz < profile.accel_rate_hz
             ? profile.software_cap_hz
             : profile.accel_rate_hz;
}

}  // namespace emoleak::phone
