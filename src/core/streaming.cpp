#include "core/streaming.h"

#include <algorithm>
#include <cmath>

#include "features/features.h"
#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::core {

void StreamingConfig::validate() const {
  detector.validate();
  // The offline detector tolerates zero-length gap/region windows, but
  // the incremental detector closes regions by counting sub-threshold
  // samples, so both must be strictly positive here.
  if (detector.merge_gap_s <= 0.0) {
    throw util::ConfigError{"StreamingConfig: detector.merge_gap_s <= 0"};
  }
  if (detector.min_region_s <= 0.0) {
    throw util::ConfigError{"StreamingConfig: detector.min_region_s <= 0"};
  }
  if (noise_window_s <= 0.0) {
    throw util::ConfigError{"StreamingConfig: noise_window_s <= 0"};
  }
  if (max_region_s <= detector.min_region_s) {
    throw util::ConfigError{"StreamingConfig: max_region_s too small"};
  }
  if (history_s < max_region_s) {
    throw util::ConfigError{"StreamingConfig: history shorter than regions"};
  }
  if (image_size == 0) {
    throw util::ConfigError{"StreamingConfig: image_size == 0"};
  }
  stft.validate();
}

namespace {

// Every sample count is at least 1: at low sample rates the truncation
// of seconds * rate can reach 0, and a gap of 0 samples in particular
// closes a region on the first sub-threshold sample (below_count_ >= 0
// holds even while the signal is active).
std::size_t samples_of(double seconds, double rate) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds * rate));
}

// Validates before any member derives a sample count from the config.
StreamingConfig validated(StreamingConfig config, double rate) {
  config.validate();
  if (rate <= 0.0) throw util::ConfigError{"StreamingAttack: rate <= 0"};
  return config;
}

}  // namespace

namespace detail {

NoiseFloor::NoiseFloor(std::size_t capacity, double threshold_k,
                       double min_ratio)
    : capacity_{capacity},
      threshold_k_{threshold_k},
      min_ratio_{min_ratio},
      ring_(capacity) {
  // A window of `capacity_` consecutive indices holds at most
  // ceil(capacity_ / kStride) of one class, and push() erases before it
  // inserts, so these reservations are never outgrown.
  for (std::vector<double>& phase : phases_) {
    phase.reserve((capacity_ + kStride - 1) / kStride);
  }
}

namespace {

// Index of the first element of sorted [base, base + n) for which
// `before` is false — std::partition_point with a conditional move in
// place of the data-dependent branch, which the envelope's noise makes
// unpredictable. Each step keeps every element before `base` true and
// the answer within the remaining `n` values.
template <typename Before>
std::size_t partition_index(const double* base, std::size_t n,
                            Before before) {
  if (n == 0) return 0;
  const double* const first = base;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = before(base[half]) ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - first) + (before(*base) ? 1 : 0);
}

// Replaces `old` (present in sorted `v`) by `value`, leaving exactly the
// vector erase(lower_bound(old)) + insert(upper_bound(value)) leaves, in
// one shift: `at` is the slot the erase empties, and the insert's slot
// in the shortened vector is `upper` - 1 when `old` is among the values
// not above `value`, `upper` otherwise.
void replace_sorted(std::vector<double>& v, double old, double value) {
  const std::size_t at = partition_index(
      v.data(), v.size(), [old](double x) { return x < old; });
  const std::size_t upper = partition_index(
      v.data(), v.size(), [value](double x) { return !(value < x); });
  const auto slot = [&v](std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (!(value < old)) {
    std::move(slot(at + 1), slot(upper), slot(at));
    v[upper - 1] = value;
  } else {
    std::move_backward(slot(upper), slot(at), slot(at + 1));
    v[upper] = value;
  }
}

}  // namespace

void NoiseFloor::push(double value) {
  const double evicted = ring_[ring_pos_];
  ring_[ring_pos_] = value;
  ring_pos_ = ring_pos_ + 1 == capacity_ ? 0 : ring_pos_ + 1;
  std::vector<double>& phase = phases_[count_ % kStride];
  if (count_ >= capacity_ && capacity_ % kStride == 0) {
    // The evicted value's class is the new value's class.
    replace_sorted(phase, evicted, value);
  } else {
    if (count_ >= capacity_) {
      std::vector<double>& old = phases_[(count_ - capacity_) % kStride];
      old.erase(std::lower_bound(old.begin(), old.end(), evicted));
    }
    phase.insert(std::upper_bound(phase.begin(), phase.end(), value), value);
  }
  ++count_;
}

double NoiseFloor::threshold() const {
  if (count_ == 0) return 0.0;
  // The front's class holds ceil(size() / kStride) values: the
  // decimated window.
  const std::vector<double>& sample = phases_[(count_ - size()) % kStride];
  const double q25 = sample[sample.size() / 4];
  const double q50 = sample[sample.size() / 2];
  const double spread = std::max(q50 - q25, 1e-9);
  return std::max(q25 + threshold_k_ * spread, min_ratio_ * q25);
}

}  // namespace detail

StreamingAttack::StreamingAttack(StreamingConfig config, double sample_rate_hz,
                                 std::shared_ptr<const ml::Classifier> classifier)
    : config_{validated(std::move(config), sample_rate_hz)},
      rate_{sample_rate_hz},
      noise_{samples_of(config_.noise_window_s, rate_),
             config_.detector.threshold_k, config_.detector.min_ratio},
      classifier_{std::move(classifier)},
      raw_history_(samples_of(config_.history_s, rate_)) {
  if (config_.detector.detection_highpass_hz > 0.0) {
    hpf_ = dsp::BiquadCascade::butterworth_highpass(
        config_.detector.highpass_order,
        config_.detector.detection_highpass_hz, rate_);
    use_hpf_ = true;
  }
  // Envelope: single-pole mean-square tracker matching the offline
  // moving-RMS window length.
  env_alpha_ = std::exp(-1.0 / (config_.detector.envelope_window_s * rate_));

  min_region_samples_ = samples_of(config_.detector.min_region_s, rate_);
  gap_samples_ = samples_of(config_.detector.merge_gap_s, rate_);
  max_region_samples_ = samples_of(config_.max_region_s, rate_);
  pad_samples_ = static_cast<std::size_t>(config_.detector.pad_s * rate_);
}

EmotionEvent StreamingAttack::close_region(std::size_t start, std::size_t end,
                                           std::size_t slot) {
  EmotionEvent event;
  event.start_sample = start > pad_samples_ ? start - pad_samples_ : 0;
  event.end_sample = end + pad_samples_;

  // Slice the raw history for feature extraction. Both bounds clamp
  // against history_start_ before subtracting: a padded region that has
  // (partly or fully) been evicted from the history would otherwise
  // wrap the unsigned difference and slice the entire history. A fully
  // evicted region simply yields an unclassified event below.
  const std::size_t lo =
      event.start_sample > history_start_ ? event.start_sample - history_start_
                                          : 0;
  const std::size_t hi =
      event.end_sample > history_start_
          ? std::min<std::size_t>(event.end_sample - history_start_,
                                  history_size_)
          : 0;
  if (classifier_ && hi > lo + 4) {
    // The slice is contiguous in the ring or wraps once past its end.
    const std::size_t capacity = raw_history_.size();
    const std::size_t first =
        (history_pos_ + capacity - history_size_ + lo) % capacity;
    const std::size_t head = std::min(hi - lo, capacity - first);
    std::vector<double> region(hi - lo);
    const auto ring = raw_history_.begin();
    std::copy_n(ring + static_cast<std::ptrdiff_t>(first), head,
                region.begin());
    std::copy_n(ring, region.size() - head,
                region.begin() + static_cast<std::ptrdiff_t>(head));
    // The classifier's input view depends on the task it was trained
    // for: Table-II features for the classical heads, the spectrogram
    // image for fingerprint matching. Both are computed exactly like
    // the offline pipeline (core::extract) so a served region lands in
    // the same input space as the training rows.
    std::vector<double> input;
    if (route_ == FeatureRoute::kTableFeatures) {
      input = features::extract_features(region, rate_);
    } else {
      input = dsp::region_image(region, rate_, config_.stft,
                                config_.image_size, util::thread_workspace());
    }
    const bool valid = std::all_of(input.begin(), input.end(), [](double v) {
      return std::isfinite(v);
    });
    if (valid) {
      if (deferred_) {
        // Queue for the caller's batch-classify step; the event ships
        // unclassified and is patched by slot when the batch resolves.
        pending_.push_back({slot, classifier_, std::move(input)});
      } else {
        event.probabilities = classifier_->predict_proba(input);
        event.predicted_class = static_cast<int>(
            std::max_element(event.probabilities.begin(),
                             event.probabilities.end()) -
            event.probabilities.begin());
      }
    }
  }
  return event;
}

void StreamingAttack::process_sample(double raw, std::vector<EmotionEvent>& out) {
  // Raw history for feature extraction.
  raw_history_[history_pos_] = raw;
  history_pos_ = history_pos_ + 1 == raw_history_.size() ? 0 : history_pos_ + 1;
  if (history_size_ < raw_history_.size()) {
    ++history_size_;
  } else {
    ++history_start_;
  }

  // Detection domain: DC removal (slow tracker) + optional HPF.
  if (!dc_initialized_) {
    dc_estimate_ = raw;
    dc_initialized_ = true;
  }
  constexpr double kDcAlpha = 0.999;  // ~2.4 s time constant at 420 Hz
  dc_estimate_ = kDcAlpha * dc_estimate_ + (1.0 - kDcAlpha) * raw;
  double x = raw - dc_estimate_;
  if (use_hpf_) x = hpf_.process(x);

  envelope_sq_ = env_alpha_ * envelope_sq_ + (1.0 - env_alpha_) * x * x;
  const double envelope = std::sqrt(envelope_sq_);

  noise_.push(envelope);

  // Need enough noise context before detecting at all.
  if (noise_.size() < noise_.capacity() / 4) {
    ++absolute_;
    return;
  }

  const bool active = envelope > noise_.threshold();

  if (!in_region_) {
    if (active) {
      in_region_ = true;
      region_start_ = absolute_;
      below_count_ = 0;
    }
  } else {
    if (active) {
      below_count_ = 0;
    } else {
      ++below_count_;
    }
    const std::size_t length = absolute_ - region_start_;
    const bool gap_closed = below_count_ >= gap_samples_;
    const bool too_long = length >= max_region_samples_;
    if (gap_closed || too_long) {
      const std::size_t end = absolute_ - below_count_;
      in_region_ = false;
      if (end > region_start_ &&
          end - region_start_ >= min_region_samples_) {
        out.push_back(close_region(region_start_, end, out.size()));
      }
    }
  }
  ++absolute_;
}

std::vector<EmotionEvent> StreamingAttack::push(std::span<const double> samples) {
  if (!std::all_of(samples.begin(), samples.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw util::DataError{"StreamingAttack::push: non-finite sample"};
  }
  OBS_SPAN_ARG("streaming.push", "samples", samples.size());
  // Per-window wall-time budget: each push() is one sensor window in a
  // real deployment, so the distribution of its cost (not just a mean)
  // is what decides whether the attack keeps up with the sample rate.
  static obs::Histogram& window_ns =
      obs::Registry::instance().histogram("streaming.window_ns");
  const std::uint64_t t0 = obs::trace_now_ns();
  std::vector<EmotionEvent> out;
  for (const double s : samples) process_sample(s, out);
  window_ns.record(obs::trace_now_ns() - t0);
  return out;
}

std::optional<EmotionEvent> StreamingAttack::finish() {
  if (!in_region_) return std::nullopt;
  in_region_ = false;
  const std::size_t end = absolute_ - below_count_;
  if (end <= region_start_ || end - region_start_ < min_region_samples_) {
    return std::nullopt;
  }
  return close_region(region_start_, end, 0);
}

}  // namespace emoleak::core
