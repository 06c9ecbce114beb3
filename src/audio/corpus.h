// Emotional-speech corpus factories modelled on the paper's datasets.
//
// We cannot ship SAVEE / TESS / CREMA-D audio; instead each corpus is
// regenerated deterministically from a seed with the same population
// statistics (speaker count, utterances per emotion, emotion set,
// gender mix) and a dataset-specific expressiveness / inter-speaker
// variability that reproduces the relative difficulty the paper
// observes (TESS >> SAVEE ~ CREMA-D). See DESIGN.md §2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "audio/utterance.h"

namespace emoleak::audio {

struct DatasetSpec {
  std::string name;
  std::vector<Emotion> emotions;
  int speaker_count = 1;
  /// Utterances per (speaker, emotion).
  int utterances_per_speaker_emotion = 1;
  double male_fraction = 0.5;
  /// How exaggerated the acted portrayals are (scales prosody deviation
  /// from neutral).
  double expressiveness = 1.0;
  /// Within-dataset inter-speaker variability (see SpeakerVoice).
  double speaker_variability = 0.5;
  /// Per-utterance expressiveness spread (acting inconsistency).
  double expressiveness_jitter = 0.10;
  SynthConfig synth;

  void validate() const;

  [[nodiscard]] std::size_t total_utterances() const noexcept {
    return static_cast<std::size_t>(speaker_count) *
           static_cast<std::size_t>(utterances_per_speaker_emotion) *
           emotions.size();
  }
};

/// SAVEE: 480 utterances, 4 native English male speakers, 7 emotions
/// (120 per speaker). Paper §V-A.
[[nodiscard]] DatasetSpec savee_spec();

/// TESS: 2800 utterances, 2 female actors, 7 emotions ("Say the word
/// ..." carrier phrases; highly expressive, consistent recordings).
[[nodiscard]] DatasetSpec tess_spec();

/// CREMA-D: 7442 clips from 91 diverse actors, 6 emotions. We round to
/// 91 actors x 6 emotions x 13 utterances ~ 7098 clips.
[[nodiscard]] DatasetSpec cremad_spec();

/// Scales a spec's per-speaker utterance count by `fraction` (at least
/// one per speaker-emotion); used to keep benchmark wall-clock bounded
/// while preserving the dataset's structure.
[[nodiscard]] DatasetSpec scaled_spec(DatasetSpec spec, double fraction);

/// Metadata for one corpus entry; audio is synthesized on demand.
struct UtteranceInfo {
  std::size_t index = 0;
  int speaker_id = 0;
  Emotion emotion = Emotion::kNeutral;
};

/// A deterministic virtual corpus: stores only speakers + metadata and
/// synthesizes any utterance's audio on demand from (seed, index), so
/// even CREMA-D-sized corpora need no bulk storage.
class Corpus {
 public:
  Corpus(DatasetSpec spec, std::uint64_t seed);

  [[nodiscard]] const DatasetSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<UtteranceInfo>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] const std::vector<SpeakerVoice>& speakers() const noexcept {
    return speakers_;
  }

  /// Synthesizes utterance `index`. Deterministic: the same (spec, seed,
  /// index) always yields identical samples.
  [[nodiscard]] Utterance synthesize(std::size_t index) const;

  [[nodiscard]] std::vector<std::string> class_names() const;

 private:
  DatasetSpec spec_;
  std::uint64_t seed_;
  std::vector<SpeakerVoice> speakers_;
  std::vector<UtteranceInfo> entries_;
};

}  // namespace emoleak::audio
