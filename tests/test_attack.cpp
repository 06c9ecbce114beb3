// End-to-end integration tests for the EmoLeak attack (core/attack.h).
//
// These exercise the full chain — corpus synthesis, vibration channel,
// speech-region extraction, feature extraction, classifiers — on small
// configurations and assert the paper's qualitative results: accuracy
// far above chance on the loudspeaker, degraded but useful accuracy on
// the ear speaker, and a drop under the Android 200 Hz rate cap.
#include "core/attack.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "ml/logistic.h"
#include "nn/cnn_classifier.h"
#include "util/error.h"
#include "util/parallel.h"

namespace {

using emoleak::audio::savee_spec;
using emoleak::audio::scaled_spec;
using emoleak::audio::tess_spec;
using emoleak::core::capture;
using emoleak::core::CnnRunConfig;
using emoleak::core::ear_speaker_classifiers;
using emoleak::core::ear_speaker_scenario;
using emoleak::core::evaluate_classical;
using emoleak::core::evaluate_spectrogram_cnn;
using emoleak::core::evaluate_timefreq_cnn;
using emoleak::core::ExtractedData;
using emoleak::core::loudspeaker_classifiers;
using emoleak::core::loudspeaker_scenario;
using emoleak::core::ScenarioConfig;
using emoleak::ml::LogisticRegression;
using emoleak::phone::oneplus_7t;
using emoleak::phone::with_rate_cap;

ExtractedData small_capture(double fraction = 0.08, std::uint64_t seed = 43) {
  ScenarioConfig sc = loudspeaker_scenario(tess_spec(), oneplus_7t(), seed);
  sc.corpus_fraction = fraction;
  return capture(sc);
}

TEST(ScenarioTest, LoudspeakerDefaultsAreTableTop) {
  const ScenarioConfig sc = loudspeaker_scenario(tess_spec(), oneplus_7t());
  EXPECT_EQ(static_cast<int>(sc.posture),
            static_cast<int>(emoleak::phone::Posture::kTableTop));
  EXPECT_DOUBLE_EQ(sc.pipeline.detector.detection_highpass_hz, 0.0);
}

TEST(ScenarioTest, EarSpeakerDefaultsAreHandheldWith8HzHpf) {
  const ScenarioConfig sc = ear_speaker_scenario(tess_spec(), oneplus_7t());
  EXPECT_EQ(static_cast<int>(sc.posture),
            static_cast<int>(emoleak::phone::Posture::kHandheld));
  EXPECT_DOUBLE_EQ(sc.pipeline.detector.detection_highpass_hz, 8.0);
}

TEST(ClassifierStablesTest, MatchPaperTables) {
  const auto loud = loudspeaker_classifiers();
  ASSERT_EQ(loud.size(), 3u);
  EXPECT_EQ(loud[0]->name(), "Logistic");
  EXPECT_EQ(loud[1]->name(), "multiClassClassifier");
  EXPECT_EQ(loud[2]->name(), "trees.lmt");
  const auto ear = ear_speaker_classifiers();
  ASSERT_EQ(ear.size(), 3u);
  EXPECT_EQ(ear[0]->name(), "RandomForest");
  EXPECT_EQ(ear[1]->name(), "RandomSubSpace");
}

TEST(AttackTest, LoudspeakerAccuracyFarAboveChance) {
  const ExtractedData data = small_capture(0.15);
  const auto result = evaluate_classical(LogisticRegression{}, data.features, 7);
  // Random guess is 1/7 ~ 14.3%; the paper reports ~95% on full TESS.
  // Even this small slice must be way above chance.
  EXPECT_GT(result.accuracy, 0.5);
  EXPECT_GT(data.extraction_rate, 0.9);
}

TEST(AttackTest, CaptureIsDeterministic) {
  const ExtractedData a = small_capture(0.04, 7);
  const ExtractedData b = small_capture(0.04, 7);
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.features.size(); ++i) {
    EXPECT_EQ(a.features.x[i], b.features.x[i]);
  }
}

TEST(AttackTest, EarSpeakerDegradedButUseful) {
  ScenarioConfig sc = ear_speaker_scenario(tess_spec(), oneplus_7t(), 43);
  sc.corpus_fraction = 0.15;
  const ExtractedData ear = capture(sc);
  EXPECT_GT(ear.extraction_rate, 0.45);  // paper: >= 45% of word regions

  const ExtractedData loud = small_capture(0.15, 43);
  const auto ear_acc =
      evaluate_classical(LogisticRegression{}, ear.features, 7).accuracy;
  const auto loud_acc =
      evaluate_classical(LogisticRegression{}, loud.features, 7).accuracy;
  EXPECT_GT(ear_acc, 2.0 / 7.0);  // well above random guess
  EXPECT_GT(loud_acc, ear_acc);   // loudspeaker is the stronger channel
}

TEST(AttackTest, RateCapReducesAccuracy) {
  ScenarioConfig normal = loudspeaker_scenario(tess_spec(), oneplus_7t(), 43);
  normal.corpus_fraction = 0.15;
  ScenarioConfig capped = loudspeaker_scenario(
      tess_spec(), with_rate_cap(oneplus_7t(), 200.0), 43);
  capped.corpus_fraction = 0.15;
  const auto full =
      evaluate_classical(LogisticRegression{}, capture(normal).features, 7);
  const auto limited =
      evaluate_classical(LogisticRegression{}, capture(capped).features, 7);
  EXPECT_GT(full.accuracy, limited.accuracy);
  EXPECT_GT(limited.accuracy, 2.0 / 7.0);  // still >> random (paper §VI-A)
}

TEST(AttackTest, TimefreqCnnTrainsAndBeatsChance) {
  const ExtractedData data = small_capture(0.12);
  CnnRunConfig cfg;
  cfg.train.epochs = 12;
  const auto result = evaluate_timefreq_cnn(data.features, cfg);
  EXPECT_GT(result.accuracy, 0.35);
  EXPECT_EQ(result.history.train_loss.size(), 12u);
  EXPECT_FALSE(result.history.val_loss.empty());
}

TEST(AttackTest, SpectrogramCnnTrainsAndBeatsChance) {
  const ExtractedData data = small_capture(0.12);
  CnnRunConfig cfg;
  cfg.train.epochs = 12;
  const auto result = evaluate_spectrogram_cnn(
      data.spectrograms, data.image_size, data.features.y,
      data.features.class_count, cfg);
  EXPECT_GT(result.accuracy, 0.3);
}

TEST(AttackTest, CnnRejectsMalformedInputs) {
  // Each input must throw before training stages a row: a wrong-size
  // image that got through would be read past its end by
  // CnnClassifier::fit's staging copy (the ASan build shows it).
  const ExtractedData data = small_capture(0.04);
  const emoleak::ml::Dataset& features = data.features;
  ASSERT_GE(features.size(), 20u);
  CnnRunConfig cfg;
  cfg.train.epochs = 1;
  const auto timefreq = [&](const emoleak::ml::Dataset& set) {
    (void)evaluate_timefreq_cnn(set, cfg);
  };
  const auto spectrogram = [&](const std::vector<std::vector<double>>& images,
                               const std::vector<int>& labels) {
    (void)evaluate_spectrogram_cnn(images, data.image_size, labels,
                                   features.class_count, cfg);
  };
  const auto first = [](auto v, std::size_t n) {
    v.resize(n);
    return v;
  };

  // The unedited inputs train, so each case below fails on its own edit.
  EXPECT_NO_THROW(timefreq(features));
  EXPECT_NO_THROW(spectrogram(data.spectrograms, features.y));

  std::vector<std::vector<double>> one_short = data.spectrograms;
  one_short[one_short.size() / 2].pop_back();
  std::vector<std::vector<double>> all_short = data.spectrograms;
  for (auto& image : all_short) image.pop_back();
  emoleak::ml::Dataset tiny = features;
  tiny.x.resize(19);
  tiny.y.resize(19);
  emoleak::ml::Dataset unlabelled_row = features;
  unlabelled_row.y.pop_back();

  const std::pair<const char*, std::function<void()>> cases[] = {
      {"timefreq, 19 rows", [&] { timefreq(tiny); }},
      {"timefreq, one label short", [&] { timefreq(unlabelled_row); }},
      {"spectrogram, 19 images",
       [&] {
         spectrogram(first(data.spectrograms, 19), first(features.y, 19));
       }},
      {"spectrogram, one label short",
       [&] {
         spectrogram(data.spectrograms,
                     first(features.y, features.size() - 1));
       }},
      {"spectrogram, one image a pixel short",
       [&] { spectrogram(one_short, features.y); }},
      {"spectrogram, every image a pixel short",
       [&] { spectrogram(all_short, features.y); }},
  };
  for (const auto& [name, run] : cases) {
    EXPECT_THROW(run(), emoleak::util::DataError) << name;
  }
}

/// Trains a CnnClassifier at `threads` and returns predict_proba of
/// every training row, concatenated.
std::vector<double> cnn_train_probabilities(
    emoleak::nn::CnnClassifier::Arch arch, const emoleak::ml::Dataset& data,
    std::size_t threads) {
  emoleak::nn::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 16;
  emoleak::nn::CnnClassifier cnn{arch, data.dim(),
                                 emoleak::nn::CnnConfig::fast(), train};
  cnn.set_parallelism(emoleak::util::Parallelism{.threads = threads});
  cnn.fit(data);
  std::vector<double> out;
  for (const std::vector<double>& row : data.x) {
    const std::vector<double> p = cnn.predict_proba(row);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

TEST(AttackTest, CnnClassifierFitIsBitIdenticalAtAnyThreadCount) {
  // Conv2D training fans batches out over the pool; the trained model
  // must not depend on the thread count, for either architecture.
  using Arch = emoleak::nn::CnnClassifier::Arch;
  const ExtractedData data = small_capture(0.06);
  emoleak::ml::Dataset images;
  images.x = data.spectrograms;
  images.y = data.features.y;
  images.class_count = data.features.class_count;
  const std::pair<Arch, const emoleak::ml::Dataset*> heads[] = {
      {Arch::kTimefreq, &data.features}, {Arch::kSpectrogram, &images}};
  for (const auto& [arch, set] : heads) {
    const std::vector<double> serial = cnn_train_probabilities(arch, *set, 1);
    ASSERT_EQ(serial.size(),
              set->size() * static_cast<std::size_t>(set->class_count));
    for (const std::size_t threads : {2, 4}) {
      const std::vector<double> parallel =
          cnn_train_probabilities(arch, *set, threads);
      ASSERT_EQ(parallel.size(), serial.size());
      EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                            serial.size() * sizeof(double)),
                0)
          << "arch=" << static_cast<int>(arch) << " threads=" << threads;
    }
  }
}

// FNV-1a-64 over the object bytes of a sequence of doubles: a compact
// fingerprint of every output bit.
std::uint64_t fnv1a64(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : xs) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Golden digests pin the trained CNNs across commits, not only across
// thread counts within one process: a change to the layers, the GEMM,
// Adam or the training loop that moves any probability bit fails here.
// Each head trains two epochs at batch 32 on a fixed capture whose
// training split leaves a partial last batch, then scores every row
// one at a time and all rows in one batched call. The constants hold
// for this toolchain and libm: the capture calls sin, log and sqrt,
// He init sqrt, Adam pow and sqrt, and the softmax exp and log. A
// change that means to move bits re-pins them and says so.
TEST(AttackTest, CnnClassifierGoldenDigestsPinTrainedModels) {
  using Arch = emoleak::nn::CnnClassifier::Arch;
  const ExtractedData data = small_capture(0.06);
  emoleak::ml::Dataset images;
  images.x = data.spectrograms;
  images.y = data.features.y;
  images.class_count = data.features.class_count;

  emoleak::nn::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 32;
  // Sequential::train's stratified carve: floor(fraction * count) of
  // each class validates, the rest trains.
  std::vector<std::size_t> per_class(
      static_cast<std::size_t>(data.features.class_count));
  for (const int y : data.features.y) ++per_class[static_cast<std::size_t>(y)];
  std::size_t train_rows = 0;
  for (const std::size_t c : per_class) {
    train_rows += c - static_cast<std::size_t>(train.validation_fraction *
                                               static_cast<double>(c));
  }
  ASSERT_NE(train_rows % train.batch_size, 0u) << "train_rows=" << train_rows;

  struct Golden {
    Arch arch;
    const emoleak::ml::Dataset* set;
    std::uint64_t digest;
  };
  for (const Golden g : {
           Golden{Arch::kTimefreq, &data.features, 0x05e35a57eac6f8fbULL},
           Golden{Arch::kSpectrogram, &images, 0x22952a08ccc9b014ULL},
       }) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      emoleak::nn::CnnClassifier cnn{g.arch, g.set->dim(),
                                     emoleak::nn::CnnConfig::fast(), train};
      cnn.set_parallelism(emoleak::util::Parallelism{.threads = threads});
      cnn.fit(*g.set);
      std::vector<double> rows;
      std::vector<double> single;
      for (const std::vector<double>& row : g.set->x) {
        rows.insert(rows.end(), row.begin(), row.end());
        const std::vector<double> p = cnn.predict_proba(row);
        single.insert(single.end(), p.begin(), p.end());
      }
      const std::vector<double> batched =
          cnn.predict_proba_batch(rows, g.set->dim(), g.set->size());
      const std::uint64_t digest = fnv1a64(single);
      EXPECT_EQ(digest, g.digest)
          << "arch=" << static_cast<int>(g.arch) << " threads=" << threads
          << " digest=0x" << std::hex << digest;
      ASSERT_EQ(batched.size(), single.size());
      EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                            single.size() * sizeof(double)),
                0)
          << "arch=" << static_cast<int>(g.arch) << " threads=" << threads;
    }
  }
}

// Every bit of a harness CnnResult as one sequence: the accuracy, each
// confusion count and every epoch value of the four training curves,
// each curve preceded by its length.
std::vector<double> cnn_result_bits(const emoleak::core::CnnResult& r) {
  std::vector<double> out{r.accuracy};
  for (const auto& row : r.confusion.counts()) {
    for (const std::size_t c : row) out.push_back(static_cast<double>(c));
  }
  for (const std::vector<double>* curve :
       {&r.history.train_loss, &r.history.train_accuracy, &r.history.val_loss,
        &r.history.val_accuracy}) {
    out.push_back(static_cast<double>(curve->size()));
    out.insert(out.end(), curve->begin(), curve->end());
  }
  return out;
}

// Pins what the paper harness hands back, split and seed included: a
// change to how evaluate_{timefreq,spectrogram}_cnn split, scale, seed,
// train or score moves a digest, where the accuracy floors above would
// let it pass. Same toolchain caveat as the digests above.
TEST(AttackTest, CnnHarnessGoldenDigestsPinResults) {
  const ExtractedData data = small_capture(0.12);
  CnnRunConfig cfg;
  cfg.train.epochs = 4;
  ASSERT_GT(cfg.train.validation_fraction, 0.0);
  const std::uint64_t timefreq =
      fnv1a64(cnn_result_bits(evaluate_timefreq_cnn(data.features, cfg)));
  const std::uint64_t spectrogram = fnv1a64(cnn_result_bits(
      evaluate_spectrogram_cnn(data.spectrograms, data.image_size,
                               data.features.y, data.features.class_count,
                               cfg)));
  EXPECT_EQ(timefreq, 0xcf977d842192d28bULL) << "digest=0x" << std::hex << timefreq;
  EXPECT_EQ(spectrogram, 0xd5c6e3baf6b0b05aULL) << "digest=0x" << std::hex << spectrogram;
}

TEST(AttackTest, CnnClassifierZeroRowBatchIsEmpty) {
  // Like ml::Classifier's default: no rows in, no probabilities out
  // (the zero batch used to reach Flatten's division by the batch size).
  const ExtractedData data = small_capture(0.04);
  emoleak::nn::TrainConfig train;
  train.epochs = 1;
  emoleak::nn::CnnClassifier cnn{emoleak::nn::CnnClassifier::Arch::kTimefreq,
                                 data.features.dim(),
                                 emoleak::nn::CnnConfig::fast(), train};
  cnn.fit(data.features);
  EXPECT_TRUE(cnn.predict_proba_batch({}, data.features.dim(), 0).empty());
}

TEST(AttackTest, CrossValidationPathWorks) {
  const ExtractedData data = small_capture(0.06);
  const auto result =
      evaluate_classical(LogisticRegression{}, data.features, 7, /*cv=*/5);
  EXPECT_EQ(result.confusion.total(), data.features.size());
  EXPECT_GT(result.accuracy, 0.4);
}

TEST(AttackTest, SaveeHarderThanTess) {
  // The dataset-difficulty ordering the paper reports (Tables III/V).
  ScenarioConfig tess = loudspeaker_scenario(tess_spec(), oneplus_7t(), 43);
  tess.corpus_fraction = 0.25;
  ScenarioConfig savee = loudspeaker_scenario(savee_spec(), oneplus_7t(), 43);
  // SAVEE is small (476); use all of it.
  const auto tess_acc =
      evaluate_classical(LogisticRegression{}, capture(tess).features, 7).accuracy;
  const auto savee_acc =
      evaluate_classical(LogisticRegression{}, capture(savee).features, 7).accuracy;
  EXPECT_GT(tess_acc, savee_acc + 0.15);
}

}  // namespace
