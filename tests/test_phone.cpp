// Tests for phone profiles and the conduction channel (phone/*.h).
#include "phone/channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/stats.h"
#include "phone/profile.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::phone::accel_sampling_chain;
using emoleak::phone::all_phones;
using emoleak::phone::conduct;
using emoleak::phone::effective_accel_rate;
using emoleak::phone::handheld_noise;
using emoleak::phone::oneplus_7t;
using emoleak::phone::PhoneProfile;
using emoleak::phone::pixel_5;
using emoleak::phone::SpeakerKind;
using emoleak::phone::with_rate_cap;
using emoleak::util::Rng;

std::vector<double> sine(double freq_hz, double rate_hz, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) /
                    rate_hz);
  }
  return x;
}

TEST(PhoneProfileTest, AllProfilesValid) {
  for (const PhoneProfile& p : all_phones()) {
    EXPECT_NO_THROW(p.validate()) << p.name;
    EXPECT_GT(p.accel_rate_hz, 100.0);
    EXPECT_GT(p.loudspeaker_gain, p.ear_speaker_gain * 0.5) << p.name;
  }
}

TEST(PhoneProfileTest, SixDevicesWithPaperNames) {
  const auto phones = all_phones();
  ASSERT_EQ(phones.size(), 6u);
  EXPECT_EQ(phones[0].name, "OnePlus 7T");
  EXPECT_EQ(phones[2].name, "Google Pixel 5");
  EXPECT_EQ(phones[5].name, "Samsung Galaxy S21 Ultra");
}

TEST(PhoneProfileTest, OnePlus7THasStrongestConduction) {
  // Matches the paper's per-device TESS ordering (Table V).
  const auto phones = all_phones();
  for (std::size_t i = 2; i < phones.size(); ++i) {
    EXPECT_GT(phones[0].loudspeaker_gain, phones[i].loudspeaker_gain)
        << phones[i].name;
  }
}

TEST(PhoneProfileTest, ValidationCatchesBadValues) {
  PhoneProfile p = oneplus_7t();
  p.name.clear();
  EXPECT_THROW(p.validate(), emoleak::util::ConfigError);
  p = oneplus_7t();
  p.accel_rate_hz = -1.0;
  EXPECT_THROW(p.validate(), emoleak::util::ConfigError);
  p = oneplus_7t();
  p.loudspeaker_gain = 0.0;
  EXPECT_THROW(p.validate(), emoleak::util::ConfigError);
  p = oneplus_7t();
  p.resonances.push_back({-5.0, 1.0, 1.0});
  EXPECT_THROW(p.validate(), emoleak::util::ConfigError);
}

TEST(RateCapTest, CapsOnlyWhenBelowNative) {
  const PhoneProfile capped = with_rate_cap(oneplus_7t(), 200.0);
  EXPECT_DOUBLE_EQ(capped.software_cap_hz, 200.0);
  EXPECT_DOUBLE_EQ(effective_accel_rate(capped), 200.0);
  EXPECT_NE(capped.name.find("rate-capped"), std::string::npos);

  const PhoneProfile uncapped = with_rate_cap(oneplus_7t(), 1000.0);
  EXPECT_DOUBLE_EQ(uncapped.software_cap_hz, 0.0);
  EXPECT_DOUBLE_EQ(effective_accel_rate(uncapped), oneplus_7t().accel_rate_hz);
}

TEST(RateCapTest, InvalidCapThrows) {
  EXPECT_THROW((void)with_rate_cap(oneplus_7t(), 0.0),
               emoleak::util::ConfigError);
}

TEST(ConductTest, OutputScalesWithSpeakerGain) {
  const PhoneProfile p = oneplus_7t();
  const auto audio = sine(120.0, 2000.0, 4000);
  const auto loud = conduct(audio, 2000.0, p, SpeakerKind::kLoudspeaker);
  const auto ear = conduct(audio, 2000.0, p, SpeakerKind::kEarSpeaker);
  const double loud_rms = emoleak::dsp::rms(loud);
  const double ear_rms = emoleak::dsp::rms(ear);
  EXPECT_GT(loud_rms, 0.0);
  EXPECT_GT(ear_rms, 0.0);
  // 120 Hz is in both excursion passbands, so the ratio approximately
  // follows the gain ratio.
  EXPECT_NEAR(loud_rms / ear_rms, p.loudspeaker_gain / p.ear_speaker_gain,
              0.4 * p.loudspeaker_gain / p.ear_speaker_gain);
}

TEST(ConductTest, LoudspeakerRollsOffHighFrequencies) {
  const PhoneProfile p = oneplus_7t();
  const double fs = 8000.0;
  const auto low = conduct(sine(100.0, fs, 8000), fs, p, SpeakerKind::kLoudspeaker);
  const auto high = conduct(sine(2500.0, fs, 8000), fs, p, SpeakerKind::kLoudspeaker);
  EXPECT_GT(emoleak::dsp::rms(low), 3.0 * emoleak::dsp::rms(high));
}

TEST(ConductTest, EarpieceSuppressesHighFrequenciesHarder) {
  // Female-F0-band (300 Hz) content conducts relatively worse through
  // the earpiece than male-F0-band (115 Hz) content.
  const PhoneProfile p = oneplus_7t();
  const double fs = 2000.0;
  const auto male_ear = conduct(sine(115.0, fs, 8000), fs, p, SpeakerKind::kEarSpeaker);
  const auto female_ear = conduct(sine(300.0, fs, 8000), fs, p, SpeakerKind::kEarSpeaker);
  const auto male_loud = conduct(sine(115.0, fs, 8000), fs, p, SpeakerKind::kLoudspeaker);
  const auto female_loud = conduct(sine(300.0, fs, 8000), fs, p, SpeakerKind::kLoudspeaker);
  const double ear_ratio = emoleak::dsp::rms(male_ear) / emoleak::dsp::rms(female_ear);
  const double loud_ratio = emoleak::dsp::rms(male_loud) / emoleak::dsp::rms(female_loud);
  EXPECT_GT(ear_ratio, 2.0 * loud_ratio);
}

TEST(ConductTest, ChassisResonanceAmplifies) {
  PhoneProfile p = oneplus_7t();
  const double res_hz = p.resonances[0].frequency_hz;
  const double fs = 2000.0;
  const auto at_res = conduct(sine(res_hz, fs, 8000), fs, p, SpeakerKind::kLoudspeaker);
  PhoneProfile no_res = p;
  no_res.resonances.clear();
  const auto without = conduct(sine(res_hz, fs, 8000), fs, no_res, SpeakerKind::kLoudspeaker);
  EXPECT_GT(emoleak::dsp::rms(at_res), 1.2 * emoleak::dsp::rms(without));
}

TEST(HandheldNoiseTest, ConcentratedAtLowFrequencies) {
  Rng rng{77};
  const double rate = 420.0;
  const auto noise = handheld_noise(42000, rate, rng);
  const auto mag = emoleak::dsp::rfft_magnitude(noise);
  const double bin_hz = rate / static_cast<double>(noise.size());
  double low = 0.0, high = 0.0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    const double f = static_cast<double>(k) * bin_hz;
    (f < 8.0 ? low : high) += mag[k] * mag[k];
  }
  EXPECT_GT(low, 5.0 * high);
}

TEST(HandheldNoiseTest, DeterministicGivenRng) {
  Rng r1{5}, r2{5};
  const auto a = handheld_noise(1000, 420.0, r1);
  const auto b = handheld_noise(1000, 420.0, r2);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(HandheldNoiseTest, EmptyRequestOk) {
  Rng rng{5};
  EXPECT_TRUE(handheld_noise(0, 420.0, rng).empty());
}

TEST(SamplingChainTest, OutputAtAccelRate) {
  const PhoneProfile p = oneplus_7t();
  const auto vib = sine(100.0, 2000.0, 20000);  // 10 s
  const auto sampled = accel_sampling_chain(vib, 2000.0, p);
  EXPECT_NEAR(static_cast<double>(sampled.size()), 10.0 * p.accel_rate_hz,
              p.accel_rate_hz * 0.02);
}

TEST(SamplingChainTest, AboveNyquistContentFoldsIn) {
  // The MEMS front end has no brick-wall AA filter: a 300 Hz vibration
  // must appear (folded) in the 420 Hz-sampled stream.
  const PhoneProfile p = oneplus_7t();
  const auto vib = sine(300.0, 2000.0, 40000);
  const auto sampled = accel_sampling_chain(vib, 2000.0, p);
  EXPECT_GT(emoleak::dsp::rms(sampled), 0.1);  // visible, not annihilated
}

TEST(SamplingChainTest, SoftwareCapRemovesFoldedContent) {
  const PhoneProfile capped = with_rate_cap(oneplus_7t(), 200.0);
  const auto vib = sine(150.0, 2000.0, 40000);  // above 100 Hz cap Nyquist
  const auto native = accel_sampling_chain(vib, 2000.0, oneplus_7t());
  const auto soft = accel_sampling_chain(vib, 2000.0, capped);
  EXPECT_LT(emoleak::dsp::rms(soft), 0.5 * emoleak::dsp::rms(native));
}

// Property: the channel is well-behaved for every device and speaker.
class ChannelSweep
    : public ::testing::TestWithParam<std::tuple<int, SpeakerKind>> {};

TEST_P(ChannelSweep, FiniteBoundedOutput) {
  const auto [phone_idx, speaker] = GetParam();
  const PhoneProfile p = all_phones()[static_cast<std::size_t>(phone_idx)];
  const auto vib = conduct(sine(130.0, 2000.0, 6000), 2000.0, p, speaker);
  const auto out = accel_sampling_chain(vib, 2000.0, p);
  EXPECT_FALSE(out.empty());
  for (const double v : out) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhones, ChannelSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(SpeakerKind::kLoudspeaker,
                                         SpeakerKind::kEarSpeaker)));

}  // namespace
