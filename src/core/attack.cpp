#include "core/attack.h"

#include <optional>

#include "ml/logistic.h"
#include "nn/cnn_classifier.h"
#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::core {

void ScenarioConfig::apply_posture_defaults() {
  pipeline.detector = posture == phone::Posture::kHandheld
                          ? handheld_detector_config()
                          : tabletop_detector_config();
}

ScenarioConfig loudspeaker_scenario(audio::DatasetSpec dataset,
                                    phone::PhoneProfile phone,
                                    std::uint64_t seed) {
  ScenarioConfig c;
  c.dataset = std::move(dataset);
  c.phone = std::move(phone);
  c.speaker = phone::SpeakerKind::kLoudspeaker;
  c.posture = phone::Posture::kTableTop;
  c.seed = seed;
  c.apply_posture_defaults();
  return c;
}

ScenarioConfig ear_speaker_scenario(audio::DatasetSpec dataset,
                                    phone::PhoneProfile phone,
                                    std::uint64_t seed) {
  ScenarioConfig c;
  c.dataset = std::move(dataset);
  c.phone = std::move(phone);
  c.speaker = phone::SpeakerKind::kEarSpeaker;
  c.posture = phone::Posture::kHandheld;
  c.seed = seed;
  c.apply_posture_defaults();
  return c;
}

ExtractedData capture(const ScenarioConfig& config) {
  OBS_SPAN("pipeline.capture");
  audio::DatasetSpec spec = config.dataset;
  if (config.corpus_fraction != 1.0) {
    spec = audio::scaled_spec(spec, config.corpus_fraction);
  }
  std::optional<audio::Corpus> corpus;
  {
    OBS_SPAN("pipeline.synthesize");
    corpus.emplace(spec, config.seed);
  }

  phone::RecorderConfig rec_cfg;
  rec_cfg.speaker = config.speaker;
  rec_cfg.posture = config.posture;
  rec_cfg.seed = config.seed ^ 0x5E5510ULL;
  std::optional<phone::Recording> recording;
  {
    OBS_SPAN_ARG("pipeline.conduct", "utterances", corpus->size());
    recording.emplace(record_session(*corpus, config.phone, rec_cfg));
  }

  return extract(*recording, config.pipeline);
}

std::vector<std::unique_ptr<ml::Classifier>> loudspeaker_classifiers() {
  std::vector<std::unique_ptr<ml::Classifier>> out;
  out.push_back(std::make_unique<ml::LogisticRegression>());
  out.push_back(std::make_unique<ml::OneVsRestLogistic>());
  out.push_back(std::make_unique<ml::LogisticModelTree>());
  return out;
}

std::vector<std::unique_ptr<ml::Classifier>> ear_speaker_classifiers() {
  std::vector<std::unique_ptr<ml::Classifier>> out;
  out.push_back(std::make_unique<ml::RandomForest>());
  out.push_back(std::make_unique<ml::RandomSubspace>());
  out.push_back(std::make_unique<ml::LogisticModelTree>());
  return out;
}

ClassifierResult evaluate_classical(const ml::Classifier& prototype,
                                    const ml::Dataset& features,
                                    std::uint64_t seed, std::size_t cv_folds,
                                    const util::Parallelism& parallelism) {
  OBS_SPAN_ARG("pipeline.classify", "rows", features.size());
  const ml::EvalResult r =
      cv_folds >= 2
          ? ml::cross_validate(prototype, features, cv_folds, seed, parallelism)
          : ml::evaluate_split(prototype, features, 0.8, seed);
  return ClassifierResult{prototype.name(), r.accuracy, r.confusion};
}

namespace {

/// Trains `arch` through nn::CnnClassifier on a stratified 80/20 split
/// of `data` drawn from the run seed, and scores the held-out rows.
/// `dim` is the network's input width, so a set of wrong-sized rows
/// fails fit()'s dim check.
CnnResult evaluate_cnn(nn::CnnClassifier::Arch arch, std::size_t dim,
                       const ml::Dataset& data, const CnnRunConfig& config) {
  if (data.size() < 20) {
    throw util::DataError{"evaluate_cnn: too few samples"};
  }
  util::Rng rng{config.train.seed};
  const ml::Split split = ml::train_test_split(data, 0.8, rng);
  nn::CnnClassifier model{arch, dim, config.arch, config.train};
  const ml::EvalResult r = ml::evaluate_holdout(model, split.train, split.test);
  return CnnResult{r.accuracy, model.history(), r.confusion};
}

}  // namespace

CnnResult evaluate_timefreq_cnn(const ml::Dataset& features,
                                const CnnRunConfig& config) {
  return evaluate_cnn(nn::CnnClassifier::Arch::kTimefreq, features.dim(),
                      features, config);
}

CnnResult evaluate_spectrogram_cnn(
    const std::vector<std::vector<double>>& images, std::size_t image_size,
    const std::vector<int>& labels, int class_count,
    const CnnRunConfig& config) {
  ml::Dataset data;
  data.x = images;
  data.y = labels;
  data.class_count = class_count;
  return evaluate_cnn(nn::CnnClassifier::Arch::kSpectrogram,
                      image_size * image_size, data, config);
}

}  // namespace emoleak::core
