#include "tasks/train.h"

#include <unordered_map>
#include <utility>

#include "core/speech_region.h"
#include "dsp/stft.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/rng.h"

namespace emoleak::tasks {

namespace {

/// Held-out evaluation: fits a fresh clone on the training split and
/// scores the test split. Returns the fitted model (exactly what gets
/// served) plus its honest accuracy.
TrainedTask fit_and_score(TaskSpec spec, const ml::Classifier& prototype,
                          ml::Dataset data, const TaskTrainConfig& config) {
  TrainedTask out;
  out.spec = std::move(spec);
  data.drop_invalid();
  if (data.size() < 4) {
    // A harsh mitigation can erase every detectable region; report
    // zero accuracy and no model rather than throwing mid-sweep.
    return out;
  }
  util::Rng rng{config.split_seed};
  ml::Split split = ml::train_test_split(data, config.train_fraction, rng);
  if (split.train.size() == 0 || split.test.size() == 0) return out;

  std::unique_ptr<ml::Classifier> model = prototype.clone();
  out.accuracy = ml::evaluate_holdout(*model, split.train, split.test).accuracy;
  out.train_rows = split.train.size();
  out.test_rows = split.test.size();
  out.model = std::shared_ptr<const ml::Classifier>{std::move(model)};
  return out;
}

/// capture_mitigated over the scenario's corpus, already built.
core::ExtractedData capture_mitigated(const TaskTrainConfig& config,
                                      const audio::Corpus& corpus) {
  OBS_SPAN("tasks.capture");
  phone::Recording recording = record_session(
      corpus, config.scenario.phone, core::scenario_recorder(config.scenario));
  if (!config.mitigation.is_noop()) {
    recording = apply_mitigation(recording, config.mitigation);
  }
  return core::extract(recording, config.scenario.pipeline);
}

/// media_dataset over the scenario's corpus, already built.
ml::Dataset media_dataset(const TaskTrainConfig& config,
                          const audio::Corpus& corpus) {
  OBS_SPAN("tasks.media_dataset");
  if (config.media_clips < 2) {
    throw util::ConfigError{"media_dataset: need at least 2 clips"};
  }
  if (config.media_repetitions == 0) {
    throw util::ConfigError{"media_dataset: need at least 1 repetition"};
  }
  if (corpus.size() < config.media_clips) {
    throw util::ConfigError{"media_dataset: corpus smaller than library"};
  }

  // Library: clips drawn evenly across the corpus, so the fingerprints
  // span speakers and emotions instead of one speaker's block.
  std::vector<std::size_t> library;
  std::unordered_map<std::size_t, int> clip_class;
  for (std::size_t j = 0; j < config.media_clips; ++j) {
    const std::size_t index = j * corpus.size() / config.media_clips;
    library.push_back(index);
    clip_class.emplace(index, static_cast<int>(j));
  }

  const core::PipelineConfig& pipeline = config.scenario.pipeline;
  const core::SpeechRegionDetector detector{pipeline.detector};

  ml::Dataset out;
  out.class_count = static_cast<int>(config.media_clips);
  for (const std::size_t index : library) {
    out.class_names.push_back("clip_" + std::to_string(index));
  }

  for (std::size_t rep = 0; rep < config.media_repetitions; ++rep) {
    phone::RecorderConfig rec_cfg = core::scenario_recorder(config.scenario);
    // Same-emotion grouping is a prosody-task aid; media replays keep
    // library order so every repetition covers every clip.
    rec_cfg.group_by_emotion = false;
    rec_cfg.seed += 7919 * (rep + 1);
    phone::Recording recording = record_session(
        corpus, library, config.scenario.phone, rec_cfg);
    if (!config.mitigation.is_noop()) {
      recording = apply_mitigation(recording, config.mitigation);
    }

    const std::vector<core::Region> regions =
        detector.detect(recording.accel, recording.rate_hz);
    for (const core::LabelledRegion& labelled :
         core::label_regions(regions, recording)) {
      const core::Region& region = labelled.region;
      if (region.end > recording.accel.size() || region.length() < 8) {
        continue;
      }
      const auto it = clip_class.find(
          recording.schedule[labelled.schedule_index].corpus_index);
      if (it == clip_class.end()) continue;

      // Same rendering as the serving route (StreamingAttack's
      // kSpectrogramImage branch), so trained fingerprints and served
      // regions live in the same input space.
      const std::span<const double> slice =
          std::span<const double>{recording.accel}.subspan(region.start,
                                                           region.length());
      out.x.push_back(dsp::region_image(slice, recording.rate_hz, pipeline.stft,
                                        pipeline.image_size,
                                        util::thread_workspace()));
      out.y.push_back(it->second);
    }
  }
  return out;
}

}  // namespace

core::ExtractedData capture_mitigated(const TaskTrainConfig& config) {
  return capture_mitigated(config, core::scenario_corpus(config.scenario));
}

ml::Dataset media_dataset(const TaskTrainConfig& config) {
  return media_dataset(config, core::scenario_corpus(config.scenario));
}

std::vector<TrainedTask> train_builtin_tasks(const TaskTrainConfig& config) {
  // The schedule-labelled tasks share one capture: the attacker gets
  // one trace and derives every label view from the same schedule.
  // Media replays clips of the same corpus.
  const audio::Corpus corpus = core::scenario_corpus(config.scenario);
  const core::ExtractedData data = capture_mitigated(config, corpus);

  std::vector<TrainedTask> out;
  for (const TaskSpec& spec : builtin_tasks()) {
    if (spec.kind == TaskKind::kMedia) {
      out.push_back(fit_and_score(spec,
                                  FingerprintClassifier{config.fingerprint},
                                  media_dataset(config, corpus), config));
    } else {
      out.push_back(fit_and_score(spec,
                                  ml::LogisticRegression{config.logistic},
                                  build_dataset(spec, data, corpus), config));
    }
  }
  return out;
}

std::uint32_t register_task(serve::ModelRegistry& registry,
                            const TrainedTask& task) {
  if (!task.model) return 0;  // nothing trainable (mitigated to silence)
  return registry.add(task.spec.name, task.model, task.spec.route);
}

std::vector<std::uint32_t> register_tasks(
    serve::ModelRegistry& registry, std::span<const TrainedTask> trained) {
  std::vector<std::uint32_t> versions;
  versions.reserve(trained.size());
  for (const TrainedTask& task : trained) {
    versions.push_back(register_task(registry, task));
  }
  return versions;
}

}  // namespace emoleak::tasks
