#include "tasks/mitigation.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace emoleak::tasks {

void MitigationConfig::validate(double input_rate_hz) const {
  if (input_rate_hz <= 0.0) {
    throw util::ConfigError{"MitigationConfig: input rate <= 0"};
  }
  if (lowpass_hz < 0.0) {
    throw util::ConfigError{"MitigationConfig: lowpass_hz < 0"};
  }
  if (lowpass_hz > 0.0) {
    if (lowpass_hz >= 0.5 * input_rate_hz) {
      throw util::ConfigError{
          "MitigationConfig: lowpass_hz at or above Nyquist"};
    }
    if (lowpass_order <= 0 || lowpass_order % 2 != 0) {
      throw util::ConfigError{
          "MitigationConfig: lowpass_order must be even and > 0"};
    }
  }
  if (target_rate_hz < 0.0) {
    throw util::ConfigError{"MitigationConfig: target_rate_hz < 0"};
  }
  if (target_rate_hz > 0.0 && target_rate_hz > input_rate_hz) {
    // A capture-side cap can only reduce the rate; "mitigating" upward
    // would fabricate samples.
    throw util::ConfigError{
        "MitigationConfig: target_rate_hz above the input rate"};
  }
}

MitigationFilter::MitigationFilter(MitigationConfig config,
                                   double input_rate_hz)
    : config_{config}, in_rate_{input_rate_hz} {
  config_.validate(in_rate_);
  if (config_.lowpass_hz > 0.0) {
    lowpass_ = dsp::BiquadCascade::butterworth_lowpass(
        config_.lowpass_order, config_.lowpass_hz, in_rate_);
    use_lowpass_ = true;
  }
  out_rate_ =
      config_.target_rate_hz > 0.0 ? config_.target_rate_hz : in_rate_;
  decimate_ = out_rate_ < in_rate_;
}

std::vector<double> MitigationFilter::push(std::span<const double> samples) {
  std::vector<double> out;
  if (!decimate_) out.reserve(samples.size());
  const double ratio = in_rate_ / out_rate_;  // >= 1 by validation
  for (const double v : samples) {
    const double y = use_lowpass_ ? lowpass_.process(v) : v;
    if (!decimate_) {
      out.push_back(y);
      ++in_index_;
      continue;
    }
    // Nearest-sample decimation, incrementally: emit output k exactly
    // when its source index round(k * in/out) — the same selection as
    // dsp::resample_nearest — is the sample being consumed now. Only
    // absolute indices matter, so chunk boundaries cannot shift which
    // samples are kept (the chunk-invariance contract).
    for (;;) {
      const auto src = static_cast<std::size_t>(
          std::llround(static_cast<double>(out_index_) * ratio));
      if (src != in_index_) break;
      out.push_back(y);
      ++out_index_;
    }
    ++in_index_;
  }
  return out;
}

phone::Recording apply_mitigation(const phone::Recording& recording,
                                  const MitigationConfig& config) {
  if (config.is_noop()) return recording;
  MitigationFilter filter{config, recording.rate_hz};

  phone::Recording out;
  out.accel = filter.push(std::span<const double>{recording.accel.data(),
                                                  recording.accel.size()});
  out.rate_hz = filter.output_rate_hz();
  out.dataset = recording.dataset;

  // Rescale the playback schedule into the mitigated timebase so
  // core::label_regions still aligns detected regions with ground
  // truth (the labels describe wall-clock playback, not sample counts).
  const double scale = out.rate_hz / recording.rate_hz;
  out.schedule = recording.schedule;
  const std::size_t n = out.accel.size();
  for (phone::ScheduledUtterance& u : out.schedule) {
    u.start_sample = std::min<std::size_t>(
        n, static_cast<std::size_t>(
               std::llround(static_cast<double>(u.start_sample) * scale)));
    u.end_sample = std::min<std::size_t>(
        n, static_cast<std::size_t>(
               std::llround(static_cast<double>(u.end_sample) * scale)));
  }
  return out;
}

}  // namespace emoleak::tasks
