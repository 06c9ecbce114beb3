// Online (streaming) EmoLeak attack.
//
// The deployed form of the attack (paper §III-A): a background app
// receives accelerometer samples continuously and must detect speech
// regions and classify emotions on the fly, without buffering the whole
// session. StreamingAttack consumes arbitrary-size sample chunks,
// maintains detector state (high-pass filter, envelope, adaptive noise
// floor) incrementally, and emits an EmotionEvent per completed speech
// region using a pre-trained classifier.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/speech_region.h"
#include "dsp/stft.h"
#include "ml/classifier.h"

namespace emoleak::core {

/// One classified speech region emitted by the streaming pipeline.
struct EmotionEvent {
  std::size_t start_sample = 0;  ///< absolute sample index in the stream
  std::size_t end_sample = 0;
  int predicted_class = -1;
  std::vector<double> probabilities;  ///< classifier distribution
  /// Telemetry riders, stamped by the serving layer on the request that
  /// closed the region (0 = unstamped, e.g. standalone pipeline use).
  /// Never encoded on the wire and never compared by parity checks —
  /// the event's identity is the four fields above.
  std::uint64_t flow = 0;        ///< causal-trace flow id
  std::uint64_t arrival_ns = 0;  ///< closing chunk's arrival stamp
};

/// What a classifier consumes per detected region. Different attack
/// tasks train on different views of the same trace (tasks::TaskSpec):
/// the classical heads take the 24 Table-II features, the media
/// fingerprint matches the region's spectrogram image.
enum class FeatureRoute {
  kTableFeatures,     ///< 24-dim Table-II feature vector (default)
  kSpectrogramImage,  ///< flattened image_size^2 spectrogram in [0,1]
};

struct StreamingConfig {
  DetectorConfig detector;       ///< same knobs as the offline detector
  double noise_window_s = 10.0;  ///< sliding window for the noise floor
  double max_region_s = 6.0;     ///< force-close pathological regions
  /// Samples of history retained for feature extraction beyond the
  /// longest expected region (raw samples are needed because features
  /// come from the unfiltered stream).
  double history_s = 12.0;
  /// Spectrogram-route geometry; must match the training pipeline
  /// (PipelineConfig defaults) so served regions land in the same input
  /// space the fingerprint models were fit on.
  std::size_t image_size = 32;
  dsp::StftConfig stft{.window_length = 64, .hop = 8};

  void validate() const;
};

/// A region whose classifier input was computed but whose predict was
/// deferred to a batch step (see set_deferred). `slot` indexes into the
/// event vector returned by the push() that closed the region; the
/// classifier is captured at close time so a hot-swap between close and
/// batch-classify cannot change which model scores the region.
struct PendingWindow {
  std::size_t slot = 0;
  std::shared_ptr<const ml::Classifier> classifier;
  std::vector<double> input;
};

namespace detail {

/// Adaptive detection threshold over a sliding window of envelope
/// values. The floor is q25 + threshold_k * (q50 - q25), but at least
/// min_ratio * q25, with the quantiles read from every 8th value of the
/// window counted from its oldest one.
///
/// Every 8th value from the front is exactly the window's values whose
/// absolute index is congruent to the front's index mod 8. So the
/// window is kept as 8 sorted phase classes (one per absolute index
/// mod 8) fed from a ring of the raw values: push() makes one sorted
/// insert and one erase, allocates nothing, and threshold() reads both
/// quantiles by index from the front's class. Once the window is full
/// and its capacity is a multiple of 8 (the 10 s default at 420 Hz is
/// 4200), the evicted value and the new one share a class, and push()
/// replaces one with the other in a single shift instead. The values it
/// selects are those a copy-and-sort of the decimated window selects,
/// so the threshold is bit-identical to it. Values must be finite (an
/// erase must find the evicted value again); StreamingAttack::push
/// checks.
class NoiseFloor {
 public:
  static constexpr std::size_t kStride = 8;

  /// `capacity` >= 1 values.
  NoiseFloor(std::size_t capacity, double threshold_k, double min_ratio);

  /// Appends one envelope value, evicting the oldest once full.
  void push(double value);
  /// The current floor; 0 while the window is empty.
  [[nodiscard]] double threshold() const;
  [[nodiscard]] std::size_t size() const noexcept {
    return count_ < capacity_ ? count_ : capacity_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  double threshold_k_;
  double min_ratio_;
  std::vector<double> ring_;  ///< window values, oldest at ring_pos_ once full
  std::size_t ring_pos_ = 0;  ///< slot the next value is written to
  std::size_t count_ = 0;     ///< values pushed since construction
  std::array<std::vector<double>, kStride> phases_;  ///< sorted classes
};

}  // namespace detail

class StreamingAttack {
 public:
  /// `classifier` must already be trained on the 24 Table-II features
  /// (e.g. loaded via ml::load_model_file). Pass nullptr to run in
  /// detection-only mode (events carry predicted_class == -1).
  StreamingAttack(StreamingConfig config, double sample_rate_hz,
                  std::shared_ptr<const ml::Classifier> classifier);

  /// Feeds a chunk of raw accelerometer samples; returns the events
  /// completed within this chunk (possibly none). Throws
  /// util::DataError, before any state changes, if a sample is NaN or
  /// infinite: one such sample would poison the envelope for good.
  std::vector<EmotionEvent> push(std::span<const double> samples);

  /// Flushes a region still open at end-of-stream, if any. In deferred
  /// mode its window is queued like push()'s, at slot 0 (the returned
  /// event).
  [[nodiscard]] std::optional<EmotionEvent> finish();

  /// Swaps the model, and the input view it was trained on, used for
  /// subsequent regions (hot-swap in the serving layer). Pass nullptr
  /// for detection-only mode. Regions closed before the call keep their
  /// old predictions.
  void set_classifier(std::shared_ptr<const ml::Classifier> classifier,
                      FeatureRoute route) {
    classifier_ = std::move(classifier);
    route_ = route;
  }

  /// In deferred mode push() leaves classified regions' events at
  /// predicted_class == -1 and queues {slot, classifier, input} in the
  /// pending list instead of predicting inline; the caller batches the
  /// predicts and scatters results back by slot; finish() defers the
  /// same way. Values are bit-identical either way. Drain
  /// take_pending() after every push and finish — slots are relative
  /// to that call's events.
  void set_deferred(bool deferred) noexcept { deferred_ = deferred; }
  [[nodiscard]] std::vector<PendingWindow> take_pending() {
    return std::move(pending_);
  }

  [[nodiscard]] std::size_t samples_seen() const noexcept { return absolute_; }

 private:
  void process_sample(double raw, std::vector<EmotionEvent>& out);
  /// `slot` is the event's index in the push() or finish() result;
  /// only used when deferred mode queues the window.
  EmotionEvent close_region(std::size_t start, std::size_t end,
                            std::size_t slot);

  StreamingConfig config_;
  double rate_;
  detail::NoiseFloor noise_;
  std::shared_ptr<const ml::Classifier> classifier_;
  FeatureRoute route_ = FeatureRoute::kTableFeatures;
  bool deferred_ = false;
  std::vector<PendingWindow> pending_;

  dsp::BiquadCascade hpf_;
  bool use_hpf_ = false;
  double dc_estimate_ = 0.0;   ///< slow DC tracker (gravity removal)
  bool dc_initialized_ = false;
  double envelope_sq_ = 0.0;   ///< running mean-square for the envelope
  double env_alpha_ = 0.0;

  /// Ring of unfiltered samples for features; the oldest of the
  /// history_size_ live ones sits history_size_ slots behind history_pos_.
  std::vector<double> raw_history_;
  std::size_t history_pos_ = 0;    ///< slot the next sample is written to
  std::size_t history_size_ = 0;
  std::size_t history_start_ = 0;  ///< absolute index of history front

  std::size_t absolute_ = 0;
  bool in_region_ = false;
  std::size_t region_start_ = 0;
  std::size_t below_count_ = 0;  ///< consecutive sub-threshold samples
  std::size_t min_region_samples_ = 0;
  std::size_t gap_samples_ = 0;
  std::size_t max_region_samples_ = 0;
  std::size_t pad_samples_ = 0;
};

}  // namespace emoleak::core
