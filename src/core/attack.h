// The EmoLeak attack: one-call experiment runners.
//
// Wires corpus synthesis, the phone channel, region extraction and the
// classifier stable into the experiments the paper's evaluation section
// reports. Every bench binary and example builds on these entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ml/classifier.h"
#include "ml/ensemble.h"
#include "ml/eval.h"
#include "ml/lmt.h"
#include "ml/multiclass.h"
#include "nn/cnn_models.h"

namespace emoleak::core {

/// One attack scenario: a dataset replayed on a phone through a
/// speaker in a posture.
struct ScenarioConfig {
  audio::DatasetSpec dataset;
  phone::PhoneProfile phone;
  phone::SpeakerKind speaker = phone::SpeakerKind::kLoudspeaker;
  phone::Posture posture = phone::Posture::kTableTop;
  /// Scale on utterances-per-speaker-emotion; < 1 keeps benches fast.
  double corpus_fraction = 1.0;
  std::uint64_t seed = 42;
  PipelineConfig pipeline;  ///< detector defaults chosen from posture

  /// Applies posture-appropriate detector defaults (8 Hz HPF handheld).
  void apply_posture_defaults();
};

/// Loudspeaker/table-top scenario for a dataset + phone.
[[nodiscard]] ScenarioConfig loudspeaker_scenario(audio::DatasetSpec dataset,
                                                  phone::PhoneProfile phone,
                                                  std::uint64_t seed = 42);

/// Ear-speaker/handheld scenario.
[[nodiscard]] ScenarioConfig ear_speaker_scenario(audio::DatasetSpec dataset,
                                                  phone::PhoneProfile phone,
                                                  std::uint64_t seed = 42);

/// The corpus a scenario replays: its dataset, scaled by
/// corpus_fraction, under the scenario seed.
[[nodiscard]] audio::Corpus scenario_corpus(const ScenarioConfig& config);

/// The recorder settings a scenario records with: its speaker and
/// posture, and a recorder seed derived from the scenario seed.
[[nodiscard]] phone::RecorderConfig scenario_recorder(
    const ScenarioConfig& config);

/// Synthesizes the corpus, records the session and extracts features +
/// spectrograms: the attacker's data-collection stage.
[[nodiscard]] ExtractedData capture(const ScenarioConfig& config);

/// Result of one classifier evaluation.
struct ClassifierResult {
  std::string classifier;
  double accuracy = 0.0;
  ml::ConfusionMatrix confusion{1};
};

/// The paper's classical-classifier stable for loudspeaker experiments
/// (Tables III-V): Logistic, multiClassClassifier, trees.lmt.
[[nodiscard]] std::vector<std::unique_ptr<ml::Classifier>> loudspeaker_classifiers();

/// The ear-speaker stable (Table VI): RandomForest, RandomSubSpace,
/// trees.lmt.
[[nodiscard]] std::vector<std::unique_ptr<ml::Classifier>> ear_speaker_classifiers();

/// Evaluates a classical classifier on extracted features with the
/// paper's protocol (80/20 split by default, or k-fold CV). With CV,
/// folds run across `parallelism` threads; results are bit-identical
/// at any thread count.
[[nodiscard]] ClassifierResult evaluate_classical(
    const ml::Classifier& prototype, const ml::Dataset& features,
    std::uint64_t seed, std::size_t cv_folds = 0,
    const util::Parallelism& parallelism = {});

struct CnnResult {
  double accuracy = 0.0;
  nn::History history;
  ml::ConfusionMatrix confusion{1};
};

/// `train.seed` draws the 80/20 split and seeds training.
struct CnnRunConfig {
  nn::CnnConfig arch = nn::CnnConfig::fast();
  nn::TrainConfig train{
      .epochs = 40, .batch_size = 64, .learning_rate = 3e-3, .seed = 31};
};

/// Trains/evaluates the time-frequency CNN (z-scored 24-dim features as
/// a 1-D sequence) through nn::CnnClassifier with a stratified 80/20
/// split (ml::train_test_split). Needs at least 20 rows.
[[nodiscard]] CnnResult evaluate_timefreq_cnn(const ml::Dataset& features,
                                              const CnnRunConfig& config);

/// Trains/evaluates the spectrogram-image CNN the same way; every image
/// holds image_size^2 pixels and `labels` has one entry per image.
[[nodiscard]] CnnResult evaluate_spectrogram_cnn(
    const std::vector<std::vector<double>>& images, std::size_t image_size,
    const std::vector<int>& labels, int class_count,
    const CnnRunConfig& config);

}  // namespace emoleak::core
