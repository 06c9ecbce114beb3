// Tests for the online streaming attack (core/streaming.h).
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <numbers>

#include "audio/corpus.h"
#include "core/attack.h"
#include "features/features.h"
#include "ml/logistic.h"
#include "phone/recorder.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace emoleak;
using core::StreamingAttack;
using core::StreamingConfig;

std::vector<double> trace_with_bursts(
    std::size_t n, double rate,
    const std::vector<std::pair<std::size_t, std::size_t>>& bursts,
    std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> x(n, 9.81);
  for (std::size_t i = 0; i < n; ++i) x[i] += 0.003 * rng.normal();
  for (const auto& [lo, hi] : bursts) {
    for (std::size_t i = lo; i < hi && i < n; ++i) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                             static_cast<double>(i) / rate);
    }
  }
  return x;
}

StreamingConfig default_config() {
  StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  return cfg;
}

TEST(StreamingConfigTest, Validation) {
  StreamingConfig cfg = default_config();
  cfg.noise_window_s = 0.0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg = default_config();
  cfg.max_region_s = 0.01;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg = default_config();
  cfg.history_s = 1.0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}

TEST(StreamingConfigTest, RejectsZeroGapAndMinRegion) {
  // The incremental detector closes regions by counting sub-threshold
  // samples, so zero-length gap/min-region windows are meaningless for
  // it (the offline detector tolerates them).
  StreamingConfig cfg = default_config();
  cfg.detector.merge_gap_s = 0.0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
  cfg = default_config();
  cfg.detector.min_region_s = 0.0;
  EXPECT_THROW(cfg.validate(), util::ConfigError);
}

TEST(StreamingTest, LowRateBurstYieldsSingleEvent) {
  // Regression: at very low sample rates, seconds * rate truncated
  // gap_samples_ to 0, so `below_count_ >= gap_samples_` held on every
  // in-region sample and a single burst shattered into an event per
  // sample. The counts must clamp to at least one sample.
  const double rate = 2.0;  // merge_gap_s = 0.2 -> 0.4 samples pre-fix
  StreamingConfig cfg;
  cfg.detector.detection_highpass_hz = 0.0;
  cfg.detector.envelope_window_s = 0.5;
  cfg.detector.min_ratio = 3.0;
  cfg.detector.pad_s = 0.0;
  cfg.noise_window_s = 8.0;
  cfg.max_region_s = 30.0;
  cfg.history_s = 30.0;

  // Constant gravity outside the burst: the detection-domain envelope is
  // exactly zero there, so the only activity is the burst itself.
  std::vector<double> x(64, 9.81);
  for (std::size_t i = 24; i < 34; ++i) {
    x[i] += (i % 2 == 0 ? -1.0 : 1.0);  // alternating so DC stays put
  }

  StreamingAttack attack{cfg, rate, nullptr};
  auto events = attack.push(x);
  if (auto last = attack.finish()) events.push_back(*last);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(static_cast<double>(events[0].start_sample), 24.0, 2.0);
  EXPECT_GT(events[0].end_sample, events[0].start_sample);
  EXPECT_LE(events[0].end_sample, attack.samples_seen());
}

/// Always-confident two-class stub; a classified event would carry
/// predicted_class == 1, so predicted_class == -1 proves the streaming
/// attack declined to classify.
class StubClassifier final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] int predict(std::span<const double>) const override {
    return 1;
  }
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double>) const override {
    return {0.1, 0.9};
  }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<StubClassifier>();
  }
  [[nodiscard]] std::string name() const override { return "stub"; }
};

/// Returns its input as the "distribution", exposing the classifier
/// input an event was computed from.
class EchoClassifier final : public ml::Classifier {
 public:
  void fit(const ml::Dataset&) override {}
  [[nodiscard]] int predict(std::span<const double>) const override {
    return 0;
  }
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> x) const override {
    return {x.begin(), x.end()};
  }
  [[nodiscard]] std::unique_ptr<ml::Classifier> clone() const override {
    return std::make_unique<EchoClassifier>();
  }
  [[nodiscard]] std::string name() const override { return "echo"; }
};

TEST(StreamingTest, EvictedHistoryYieldsUnclassifiedEvent) {
  // Regression guard for the raw-history slice in close_region: when a
  // force-closed region has (partly) slid out of the bounded raw
  // history, the slice bounds clamp to the retained window and the
  // event is emitted unclassified instead of wrapping the unsigned
  // subtraction and slicing garbage.
  const double rate = 1.0;
  StreamingConfig cfg;
  cfg.detector.detection_highpass_hz = 0.0;
  cfg.detector.envelope_window_s = 1.0;
  cfg.detector.min_ratio = 3.0;
  cfg.detector.min_region_s = 1.0;
  cfg.detector.merge_gap_s = 2.0;
  cfg.detector.pad_s = 0.0;
  cfg.noise_window_s = 8.0;
  cfg.max_region_s = 4.0;   // force-close after 4 samples...
  cfg.history_s = 4.0;      // ...with only 4 samples of history

  std::vector<double> x(24, 9.81);
  for (std::size_t i = 12; i < x.size(); ++i) {
    x[i] += (i % 2 == 0 ? -1.0 : 1.0);  // burst to the end of the stream
  }

  StreamingAttack attack{cfg, rate, std::make_shared<StubClassifier>()};
  auto events = attack.push(x);
  if (auto last = attack.finish()) events.push_back(*last);
  ASSERT_GE(events.size(), 1u);
  for (const auto& e : events) {
    EXPECT_EQ(e.predicted_class, -1);  // history evicted -> no features
    EXPECT_TRUE(e.probabilities.empty());
    EXPECT_LT(e.start_sample, e.end_sample);
    EXPECT_LE(e.end_sample, attack.samples_seen());
  }
}

TEST(StreamingTest, DetectsBurstsWithoutClassifier) {
  const double rate = 420.0;
  const auto x = trace_with_bursts(
      25200, rate, {{8000, 8700}, {13000, 13800}, {20000, 20600}}, 1);
  StreamingAttack attack{default_config(), rate, nullptr};
  const auto events = attack.push(x);
  EXPECT_EQ(events.size(), 3u);
  for (const auto& e : events) {
    EXPECT_EQ(e.predicted_class, -1);  // detection-only mode
    EXPECT_LT(e.start_sample, e.end_sample);
  }
  EXPECT_NEAR(static_cast<double>(events[0].start_sample), 8000.0, 120.0);
}

TEST(StreamingTest, ChunkSizeDoesNotChangeEvents) {
  const double rate = 420.0;
  const auto x =
      trace_with_bursts(16800, rate, {{8000, 8700}, {12000, 12800}}, 2);
  StreamingAttack whole{default_config(), rate, nullptr};
  const auto all = whole.push(x);

  StreamingAttack chunked{default_config(), rate, nullptr};
  std::vector<core::EmotionEvent> collected;
  for (std::size_t i = 0; i < x.size(); i += 97) {
    const std::size_t hi = std::min(i + 97, x.size());
    const auto events = chunked.push(
        std::span<const double>{x.data() + i, hi - i});
    collected.insert(collected.end(), events.begin(), events.end());
  }
  ASSERT_EQ(collected.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(collected[i].start_sample, all[i].start_sample);
    EXPECT_EQ(collected[i].end_sample, all[i].end_sample);
  }
}

TEST(StreamingTest, FinishFlushesOpenRegion) {
  const double rate = 420.0;
  // Burst extends to the end of the stream.
  const auto x = trace_with_bursts(12600, rate, {{12000, 12600}}, 3);
  StreamingAttack attack{default_config(), rate, nullptr};
  const auto during = attack.push(x);
  EXPECT_TRUE(during.empty());
  const auto final_event = attack.finish();
  ASSERT_TRUE(final_event.has_value());
  EXPECT_NEAR(static_cast<double>(final_event->start_sample), 12000.0, 120.0);
}

TEST(StreamingTest, SilenceEmitsNothing) {
  const auto x = trace_with_bursts(21000, 420.0, {}, 4);
  StreamingAttack attack{default_config(), 420.0, nullptr};
  EXPECT_TRUE(attack.push(x).empty());
  EXPECT_FALSE(attack.finish().has_value());
  EXPECT_EQ(attack.samples_seen(), x.size());
}

TEST(StreamingTest, ForceClosesPathologicalRegions) {
  StreamingConfig cfg = default_config();
  cfg.max_region_s = 2.0;
  const double rate = 420.0;
  // 20-second continuous tone: must be chopped, not buffered forever.
  const auto x = trace_with_bursts(12600, rate, {{4200, 12600}}, 5);
  StreamingAttack attack{cfg, rate, nullptr};
  const auto events = attack.push(x);
  EXPECT_GE(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_LE(e.end_sample - e.start_sample,
              static_cast<std::size_t>(2.5 * rate));
  }
}

TEST(StreamingTest, ClassifiesEmotionsOnline) {
  // Train offline on a captured session, then stream a fresh recording
  // through the online pipeline and require above-chance accuracy.
  core::ScenarioConfig train_sc = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), 60);
  train_sc.corpus_fraction = 0.1;
  const core::ExtractedData train = core::capture(train_sc);
  auto model = std::make_shared<ml::LogisticRegression>();
  model->fit(train.features);

  const audio::Corpus corpus{audio::scaled_spec(audio::tess_spec(), 0.04), 61};
  phone::RecorderConfig rc;
  rc.seed = 61;
  const phone::Recording rec =
      record_session(corpus, phone::oneplus_7t(), rc);

  StreamingAttack attack{default_config(), rec.rate_hz, model};
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < rec.accel.size(); i += 512) {
    const std::size_t hi = std::min(i + 512, rec.accel.size());
    auto chunk = attack.push(
        std::span<const double>{rec.accel.data() + i, hi - i});
    events.insert(events.end(), chunk.begin(), chunk.end());
  }
  if (auto last = attack.finish()) events.push_back(*last);

  ASSERT_GT(events.size(), 20u);
  // Match events to the schedule and score.
  std::size_t correct = 0;
  std::size_t scored = 0;
  for (const auto& e : events) {
    if (e.predicted_class < 0) continue;
    for (const auto& s : rec.schedule) {
      const std::size_t lo = std::max(e.start_sample, s.start_sample);
      const std::size_t hi = std::min(e.end_sample, s.end_sample);
      if (hi > lo && hi - lo > (e.end_sample - e.start_sample) / 2) {
        ++scored;
        int truth = 0;
        for (std::size_t c = 0; c < rec.dataset.emotions.size(); ++c) {
          if (rec.dataset.emotions[c] == s.emotion) truth = static_cast<int>(c);
        }
        if (truth == e.predicted_class) ++correct;
        break;
      }
    }
  }
  ASSERT_GT(scored, 20u);
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(scored);
  EXPECT_GT(accuracy, 0.4);  // far above the 14.3% random guess
}

// Copy-and-sort reference for detail::NoiseFloor: what
// StreamingAttack computed per sample before the phase-class windows —
// every 8th value of the window from its front, copied and sorted.
class ReferenceFloor {
 public:
  ReferenceFloor(std::size_t capacity, double threshold_k, double min_ratio)
      : capacity_{capacity}, threshold_k_{threshold_k}, min_ratio_{min_ratio} {}

  void push(double value) {
    window_.push_back(value);
    if (window_.size() > capacity_) window_.pop_front();
  }
  [[nodiscard]] std::size_t size() const { return window_.size(); }

  [[nodiscard]] double threshold() const {
    if (window_.empty()) return 0.0;
    std::vector<double> sample;
    for (std::size_t i = 0; i < window_.size(); i += 8) {
      sample.push_back(window_[i]);
    }
    std::sort(sample.begin(), sample.end());
    const double q25 = sample[sample.size() / 4];
    const double q50 = sample[sample.size() / 2];
    const double spread = std::max(q50 - q25, 1e-9);
    return std::max(q25 + threshold_k_ * spread, min_ratio_ * q25);
  }

 private:
  std::size_t capacity_;
  double threshold_k_;
  double min_ratio_;
  std::deque<double> window_;
};

TEST(NoiseFloorTest, MatchesCopyAndSortReferenceOnEverySample) {
  // Capacities 1-8 (each phase class holds at most one value), sizes
  // that are not multiples of 8, and the default 10 s window at 420 Hz
  // (4200) next to 4203. Each stream runs through the filling phase
  // and three full windows of steady state. Once full, capacities 8,
  // 64 and 4200 (multiples of 8) take push()'s in-place replace branch
  // and 4203 takes erase+insert. At 8 each class holds one value, so a
  // mis-shifted replace (writing the new value at the evicted slot
  // without shifting) first fails at 64.
  std::vector<std::size_t> capacities = {1, 2, 3, 4, 5, 6, 7, 8,
                                         9, 17, 63, 64, 4200, 4203};
  util::Rng rng{2024};
  for (const std::size_t capacity : capacities) {
    // Continuous values, heavy ties (5 distinct levels), and a mix of
    // long tied runs with continuous bursts.
    for (int shape = 0; shape < 3; ++shape) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " shape=" + std::to_string(shape));
      const double k = 3.0;
      const double ratio = 1.8;
      core::detail::NoiseFloor floor{capacity, k, ratio};
      ReferenceFloor reference{capacity, k, ratio};
      EXPECT_EQ(floor.threshold(), 0.0);

      const std::size_t total = 3 * capacity + 40;
      double level = 0.01;
      for (std::size_t i = 0; i < total; ++i) {
        double v = 0.0;
        if (shape == 0) {
          v = std::abs(rng.normal()) * 0.01;
        } else if (shape == 1) {
          v = 0.01 * static_cast<double>(rng.uniform_int(5));
        } else {
          if (rng.uniform() < 0.02) level = rng.uniform(0.0, 0.05);
          v = rng.uniform() < 0.7 ? level : rng.uniform(0.0, 0.05);
        }
        floor.push(v);
        reference.push(v);
        ASSERT_EQ(floor.size(), reference.size()) << "sample " << i;
        ASSERT_EQ(floor.threshold(), reference.threshold()) << "sample " << i;
      }
    }
  }
}

TEST(StreamingTest, NonFiniteSampleThrowsBeforeAnyStateChange) {
  // One NaN used to make the envelope NaN for good: every later
  // comparison against the floor was false and the session went
  // silent. push() now refuses the whole chunk before touching state,
  // so the instance carries on exactly like one that never saw it.
  const double rate = 420.0;
  const auto x = trace_with_bursts(
      16800, rate, {{8000, 8700}, {12000, 12800}}, 8);
  StreamingAttack clean{default_config(), rate, nullptr};
  const auto want = clean.push(x);
  ASSERT_EQ(want.size(), 2u);

  StreamingAttack attack{default_config(), rate, nullptr};
  const std::size_t half = x.size() / 2;
  auto got = attack.push(std::span<const double>{x.data(), half});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const auto from = x.begin() + static_cast<std::ptrdiff_t>(half);
    std::vector<double> chunk(from, from + 64);
    chunk[17] = bad;
    EXPECT_THROW((void)attack.push(chunk), util::DataError);
    EXPECT_EQ(attack.samples_seen(), half);
  }
  const auto rest = attack.push(
      std::span<const double>{x.data() + half, x.size() - half});
  got.insert(got.end(), rest.begin(), rest.end());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].start_sample, want[i].start_sample);
    EXPECT_EQ(got[i].end_sample, want[i].end_sample);
  }
}

TEST(StreamingTest, RegionSliceMatchesTraceAcrossHistoryWrap) {
  // The raw history is a ring of history_s (12 s = 5040 samples); these
  // regions close after it has wrapped several times, four of them
  // straddling the ring's end. The echo head hands back its input, so
  // each event carries the features of the slice it was given, which
  // must be those of the same slice of the original trace.
  const double rate = 420.0;
  const auto x = trace_with_bursts(
      30000, rate,
      {{4800, 5300}, {9900, 10400}, {15000, 15500}, {20100, 20700},
       {26000, 26500}},
      9);
  const auto model = std::make_shared<EchoClassifier>();
  StreamingAttack attack{default_config(), rate, model};
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < x.size(); i += 333) {
    const std::size_t hi = std::min(i + 333, x.size());
    const auto chunk = attack.push(
        std::span<const double>{x.data() + i, hi - i});
    events.insert(events.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(events.size(), 5u);
  for (const core::EmotionEvent& e : events) {
    SCOPED_TRACE("start=" + std::to_string(e.start_sample));
    const std::vector<double> region(
        x.begin() + static_cast<std::ptrdiff_t>(e.start_sample),
        x.begin() + static_cast<std::ptrdiff_t>(e.end_sample));
    EXPECT_EQ(e.probabilities, features::extract_features(region, rate));
  }
}

TEST(StreamingTest, DeferredFinishQueuesFinalWindowAtSlotZero) {
  // A region still open at end-of-stream defers like a pushed one: the
  // event ships unclassified, and its input waits at slot 0 of the
  // finish() result for the caller's batch step. The echo head shows
  // that input is the one an inline finish() scores.
  const double rate = 420.0;
  const auto x = trace_with_bursts(12600, rate, {{12000, 12600}}, 3);
  const auto model = std::make_shared<EchoClassifier>();
  StreamingAttack inline_attack{default_config(), rate, model};
  StreamingAttack deferred{default_config(), rate, model};
  deferred.set_deferred(true);
  ASSERT_TRUE(inline_attack.push(x).empty());
  ASSERT_TRUE(deferred.push(x).empty());

  const auto want = inline_attack.finish();
  const auto got = deferred.finish();
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->start_sample, want->start_sample);
  EXPECT_EQ(got->end_sample, want->end_sample);
  EXPECT_EQ(got->predicted_class, -1);
  EXPECT_TRUE(got->probabilities.empty());
  EXPECT_TRUE(inline_attack.take_pending().empty());

  const std::vector<core::PendingWindow> pending = deferred.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].slot, 0u);
  EXPECT_EQ(pending[0].classifier, model);
  EXPECT_EQ(pending[0].input, want->probabilities);
}

}  // namespace
