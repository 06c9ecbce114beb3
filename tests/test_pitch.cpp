// Tests for the autocorrelation pitch tracker (dsp/pitch.h).
#include "dsp/pitch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "audio/corpus.h"
#include "phone/channel.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::dsp::estimate_pitch;
using emoleak::dsp::PitchConfig;
using emoleak::dsp::pitch_statistics;
using emoleak::dsp::track_pitch;

std::vector<double> tone(double f0, double rate, double seconds,
                         double noise = 0.0, std::uint64_t seed = 1) {
  emoleak::util::Rng rng{seed};
  std::vector<double> x(static_cast<std::size_t>(rate * seconds));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * f0 * static_cast<double>(i) / rate) +
           noise * rng.normal();
  }
  return x;
}

TEST(PitchConfigTest, Validation) {
  PitchConfig c;
  c.min_hz = 0.0;
  EXPECT_THROW(c.validate(), emoleak::util::ConfigError);
  c = PitchConfig{};
  c.max_hz = c.min_hz;
  EXPECT_THROW(c.validate(), emoleak::util::ConfigError);
  c = PitchConfig{};
  c.voicing_threshold = 1.5;
  EXPECT_THROW(c.validate(), emoleak::util::ConfigError);
}

TEST(PitchTest, RecoversPureToneFrequency) {
  for (const double f0 : {80.0, 120.0, 205.0, 310.0}) {
    const auto x = tone(f0, 4000.0, 0.1);
    const auto estimate = estimate_pitch(x, 4000.0);
    ASSERT_TRUE(estimate.has_value()) << f0;
    EXPECT_NEAR(*estimate, f0, 0.05 * f0) << f0;
  }
}

TEST(PitchTest, RobustToModerateNoise) {
  const auto x = tone(150.0, 4000.0, 0.1, 0.3, 2);
  const auto estimate = estimate_pitch(x, 4000.0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 150.0, 10.0);
}

TEST(PitchTest, RejectsPureNoise) {
  emoleak::util::Rng rng{3};
  std::vector<double> x(800);
  for (double& v : x) v = rng.normal();
  EXPECT_FALSE(estimate_pitch(x, 4000.0).has_value());
}

TEST(PitchTest, RejectsSilence) {
  EXPECT_FALSE(estimate_pitch(std::vector<double>(800, 0.0), 4000.0).has_value());
  EXPECT_FALSE(estimate_pitch(std::vector<double>(800, 9.81), 4000.0).has_value());
}

TEST(PitchTest, TooShortFrameReturnsNothing) {
  const auto x = tone(100.0, 4000.0, 0.005);
  EXPECT_FALSE(estimate_pitch(x, 4000.0).has_value());
}

TEST(PitchTest, HarmonicComplexFindsFundamental) {
  // Fundamental + 2 harmonics with a falling tilt.
  const double rate = 4000.0;
  std::vector<double> x(static_cast<std::size_t>(rate * 0.1));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / rate;
    x[i] = std::sin(2.0 * std::numbers::pi * 130.0 * t) +
           0.5 * std::sin(2.0 * std::numbers::pi * 260.0 * t) +
           0.25 * std::sin(2.0 * std::numbers::pi * 390.0 * t);
  }
  const auto estimate = estimate_pitch(x, rate);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, 130.0, 6.0);
}

TEST(TrackPitchTest, TracksChangingPitch) {
  // 100 Hz for the first half, 200 Hz for the second.
  const double rate = 4000.0;
  std::vector<double> x;
  const auto a = tone(100.0, rate, 0.5);
  const auto b = tone(200.0, rate, 0.5);
  x.insert(x.end(), a.begin(), a.end());
  x.insert(x.end(), b.begin(), b.end());
  const auto track = track_pitch(x, rate);
  ASSERT_GT(track.size(), 20u);
  // Early frames near 100, late frames near 200.
  ASSERT_TRUE(track[3].f0_hz.has_value());
  EXPECT_NEAR(*track[3].f0_hz, 100.0, 8.0);
  ASSERT_TRUE(track[track.size() - 4].f0_hz.has_value());
  EXPECT_NEAR(*track[track.size() - 4].f0_hz, 200.0, 8.0);
}

TEST(TrackPitchTest, FrameTimesAdvanceByHop) {
  const auto x = tone(120.0, 4000.0, 0.5);
  PitchConfig cfg;
  const auto track = track_pitch(x, 4000.0, cfg);
  ASSERT_GE(track.size(), 2u);
  EXPECT_NEAR(track[1].time_s - track[0].time_s, cfg.hop_s, 1e-9);
}

TEST(TrackPitchTest, ShortSignalGivesEmptyTrack) {
  EXPECT_TRUE(track_pitch(std::vector<double>(10, 0.0), 4000.0).empty());
}

TEST(PitchStatisticsTest, ComputesVoicedMeanAndSpread) {
  const auto x = tone(150.0, 4000.0, 0.6);
  const auto stats = pitch_statistics(track_pitch(x, 4000.0));
  ASSERT_TRUE(stats.has_value());
  EXPECT_NEAR(stats->first, 150.0, 5.0);
  EXPECT_LT(stats->second, 5.0);  // stable tone => tiny spread
}

TEST(PitchStatisticsTest, EmptyTrackGivesNothing) {
  EXPECT_FALSE(pitch_statistics({}).has_value());
}

// Property: pitch recovered across the full voice range at accel-like
// and audio-like sample rates.
class PitchSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PitchSweep, RecoversWithinFivePercent) {
  const auto [f0, rate] = GetParam();
  if (f0 >= 0.45 * rate) GTEST_SKIP() << "above Nyquist";
  if (rate / f0 < 6.0) GTEST_SKIP() << "period under 6 samples: lag grid too coarse";
  const auto x = tone(f0, rate, 0.15, 0.05, 77);
  const auto estimate = estimate_pitch(x, rate);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(*estimate, f0, 0.05 * f0);
}

INSTANTIATE_TEST_SUITE_P(
    Voices, PitchSweep,
    ::testing::Combine(::testing::Values(70.0, 110.0, 160.0, 200.0),
                       ::testing::Values(420.0, 2000.0, 8000.0)));

// Parity oracle: the direct-sum estimator in the library's operation
// order — DC removal, the O(lags·N) normalized autocorrelation, the
// octave guard and parabolic refinement. Frames the library dispatches
// to kDirect must match it bit for bit; the unrolled and FFT kernels
// reassociate sums, so they match it to ~1e-9.
std::optional<double> reference_pitch(std::span<const double> frame,
                                      double rate, const PitchConfig& cfg) {
  const auto min_lag = static_cast<std::size_t>(rate / cfg.max_hz);
  const auto max_lag = static_cast<std::size_t>(rate / cfg.min_hz);
  if (frame.size() < 2 * max_lag || min_lag < 1) return std::nullopt;
  std::vector<double> x(frame.begin(), frame.end());
  double mean = 0.0;
  for (const double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double energy = 0.0;
  for (double& v : x) {
    v -= mean;
    energy += v * v;
  }
  if (energy <= 1e-18) return std::nullopt;

  std::vector<double> corr(max_lag + 1, 0.0);
  double peak = 0.0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    double acc = 0.0;
    double e1 = 0.0;
    double e2 = 0.0;
    for (std::size_t i = 0; i + lag < x.size(); ++i) {
      acc += x[i] * x[i + lag];
      e1 += x[i] * x[i];
      e2 += x[i + lag] * x[i + lag];
    }
    const double denom = std::sqrt(e1 * e2);
    if (denom <= 0.0) continue;
    corr[lag] = acc / denom;
    peak = std::max(peak, corr[lag]);
  }
  if (peak < cfg.voicing_threshold) return std::nullopt;

  // The smallest lag that is a local maximum within 90 % of the peak,
  // refined by a parabola through it and its neighbours.
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double left = lag > min_lag ? corr[lag - 1] : -1.0;
    const double right = lag < max_lag ? corr[lag + 1] : -1.0;
    if (corr[lag] < left || corr[lag] < right || corr[lag] < 0.90 * peak) {
      continue;
    }
    double refined = static_cast<double>(lag);
    if (lag > min_lag && lag < max_lag) {
      const double denom = left - 2.0 * corr[lag] + right;
      if (std::abs(denom) > 1e-12) refined += 0.5 * (left - right) / denom;
    }
    return rate / refined;
  }
  return std::nullopt;
}

// track_pitch against reference_pitch over the same frames: same
// voiced/unvoiced decisions and F0 within `rel_tol` relative (0 asks
// for bitwise equality).
void expect_matches_reference(std::span<const double> x, double rate,
                              const PitchConfig& cfg, double rel_tol = 1e-9) {
  const auto track = track_pitch(x, rate, cfg);
  const auto frame_n = static_cast<std::size_t>(cfg.frame_s * rate);
  const auto hop_n = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.hop_s * rate));
  std::size_t frames = 0;
  for (std::size_t start = 0; start + frame_n <= x.size(); start += hop_n) {
    ASSERT_LT(frames, track.size());
    const std::optional<double> expected =
        reference_pitch(x.subspan(start, frame_n), rate, cfg);
    const std::optional<double>& got = track[frames].f0_hz;
    ASSERT_EQ(got.has_value(), expected.has_value())
        << "voicing decision diverged at frame " << frames;
    if (expected && rel_tol == 0.0) {
      EXPECT_EQ(*got, *expected) << "frame " << frames;
    } else if (expected) {
      EXPECT_NEAR(*got, *expected, rel_tol * *expected) << "frame " << frames;
    }
    ++frames;
  }
  EXPECT_EQ(frames, track.size());
}

// The kernel a config's frames dispatch to, derived exactly as
// estimate_pitch does.
emoleak::dsp::detail::Correlator dispatch_of(double rate,
                                             const PitchConfig& cfg) {
  const auto n = static_cast<std::size_t>(cfg.frame_s * rate);
  const auto min_lag = static_cast<std::size_t>(rate / cfg.max_hz);
  const auto max_lag = static_cast<std::size_t>(rate / cfg.min_hz);
  return emoleak::dsp::detail::correlator_for(n, min_lag, max_lag);
}

TEST(PitchParityTest, FastKernelMatchesDirectOnTonesAndNoise) {
  // 16 kHz with the default 50-400 Hz range spans ~280 lags per frame:
  // past the bitwise-direct cutoff, below the FFT crossover, so the
  // tracker runs the unrolled kernel here.
  ASSERT_EQ(dispatch_of(16000.0, PitchConfig{}),
            emoleak::dsp::detail::Correlator::kFast);
  for (const double f0 : {75.0, 140.0, 290.0}) {
    expect_matches_reference(tone(f0, 16000.0, 0.4, 0.2, 31), 16000.0,
                        PitchConfig{});
  }
  // Noise-only input: both paths must agree everything is unvoiced.
  emoleak::util::Rng rng{32};
  std::vector<double> noise(16000);
  for (double& v : noise) v = rng.normal();
  expect_matches_reference(noise, 16000.0, PitchConfig{});
}

TEST(PitchParityTest, FftMatchesDirectOnWideLagGrids) {
  // Long frames over a 20-400 Hz range put lags·N past the FFT
  // crossover, so this exercises the Wiener–Khinchin correlator.
  PitchConfig cfg;
  cfg.min_hz = 20.0;
  cfg.frame_s = 0.3;
  ASSERT_EQ(dispatch_of(16000.0, cfg),
            emoleak::dsp::detail::Correlator::kFft);
  for (const double f0 : {75.0, 140.0, 290.0}) {
    expect_matches_reference(tone(f0, 16000.0, 0.8, 0.2, 31), 16000.0, cfg);
  }
  emoleak::util::Rng rng{32};
  std::vector<double> noise(16000);
  for (double& v : noise) v = rng.normal();
  expect_matches_reference(noise, 16000.0, cfg);
}

TEST(PitchParityTest, SmallFramesDispatchBitwiseIdenticalToReference) {
  // Accelerometer-rate frames sit below the direct-sum cutoff: their
  // tracks must be *bitwise* identical to the direct-sum oracle, which
  // is what keeps seed-corpus outputs unchanged.
  const auto x = tone(120.0, 420.0, 1.0, 0.1, 33);
  PitchConfig cfg;
  cfg.max_hz = 200.0;
  ASSERT_EQ(dispatch_of(420.0, cfg),
            emoleak::dsp::detail::Correlator::kDirect);
  expect_matches_reference(x, 420.0, cfg, 0.0);
}

TEST(PitchParityTest, FftMatchesDirectOnConductedSpeech) {
  // The seed-corpus use case (bench_ext_pitch): synthesized emotional
  // speech conducted through the phone chassis to the accelerometer.
  using namespace emoleak;
  util::Rng voice_rng{7};
  const audio::SpeakerVoice voice =
      audio::SpeakerVoice::sample(audio::Gender::kMale, 0.2, voice_rng);
  const phone::PhoneProfile phone = phone::oneplus_7t();
  PitchConfig cfg;
  cfg.min_hz = 60.0;
  cfg.max_hz = 200.0;
  cfg.voicing_threshold = 0.55;
  for (const audio::Emotion emotion :
       {audio::Emotion::kAngry, audio::Emotion::kSad, audio::Emotion::kFear}) {
    audio::SynthConfig synth;
    synth.target_duration_s = 1.5;
    util::Rng rng{100 + static_cast<std::uint64_t>(emotion)};
    const audio::Utterance utt = audio::synthesize_utterance(
        voice, audio::emotion_profile(emotion), synth, rng);
    const auto vib = phone::conduct(utt.samples, utt.sample_rate_hz, phone,
                                    phone::SpeakerKind::kLoudspeaker);
    const auto accel =
        phone::accel_sampling_chain(vib, utt.sample_rate_hz, phone);
    expect_matches_reference(accel, phone.accel_rate_hz, cfg);
  }
}

}  // namespace
