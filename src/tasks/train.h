// Per-task training entry points.
//
// One call turns a TaskSpec into a trained, held-out-evaluated model
// ready to register in serve::ModelRegistry under the spec's name —
// the bridge between the offline attack pipeline (core::capture) and
// the serving layer. All four built-in tasks train from the *same
// simulated capture posture* (one scenario), which is the point: one
// exfiltrated trace, N attack heads.
//
// A MitigationConfig hooks in between recording and extraction, so the
// accuracy-vs-mitigation study (bench_tasks) measures exactly what a
// capture-side defense would have removed from the attacker's input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/attack.h"
#include "ml/logistic.h"
#include "serve/model_registry.h"
#include "tasks/fingerprint.h"
#include "tasks/mitigation.h"
#include "tasks/task_spec.h"

namespace emoleak::tasks {

struct TaskTrainConfig {
  /// Capture posture for the schedule-labelled tasks (emotion, speaker,
  /// gender); also supplies phone/pipeline defaults for media.
  core::ScenarioConfig scenario;
  /// Media fingerprint: library size and how many times the library is
  /// replayed (each replay is a fresh recording with its own gaps and
  /// channel noise, giving per-clip training diversity).
  std::size_t media_clips = 8;
  std::size_t media_repetitions = 6;
  /// Train/test protocol for the held-out accuracy every task reports.
  double train_fraction = 0.8;
  std::uint64_t split_seed = 17;
  ml::LogisticConfig logistic;        ///< head for Table-II-route tasks
  FingerprintConfig fingerprint;      ///< head for the media task
  MitigationConfig mitigation;        ///< capture-side defense (noop = off)
};

struct TrainedTask {
  TaskSpec spec;
  std::shared_ptr<const ml::Classifier> model;
  double accuracy = 0.0;  ///< held-out (stratified split) accuracy
  std::size_t train_rows = 0;
  std::size_t test_rows = 0;
};

/// Captures the scenario once (recording -> optional mitigation ->
/// extraction). Exposed so callers training several schedule-labelled
/// tasks can share one capture instead of re-simulating per task.
[[nodiscard]] core::ExtractedData capture_mitigated(
    const TaskTrainConfig& config);

/// Builds the media-fingerprint training set: `media_clips` clips drawn
/// evenly from the scenario's corpus, replayed `media_repetitions`
/// times (distinct recorder seeds), regions labelled with clip identity
/// via core::label_regions, each region rendered as the spectrogram
/// image the serving route (FeatureRoute::kSpectrogramImage) computes.
[[nodiscard]] ml::Dataset media_dataset(const TaskTrainConfig& config);

/// Trains all four built-in tasks. The schedule-labelled tasks share
/// one capture; media replays its clip library separately.
[[nodiscard]] std::vector<TrainedTask> train_builtin_tasks(
    const TaskTrainConfig& config);

/// Registers a trained task under its spec name (with its feature
/// route); returns the registry version. Registering `emotion` first
/// makes it the serving default.
std::uint32_t register_task(serve::ModelRegistry& registry,
                            const TrainedTask& task);
std::vector<std::uint32_t> register_tasks(serve::ModelRegistry& registry,
                                          std::span<const TrainedTask> trained);

}  // namespace emoleak::tasks
