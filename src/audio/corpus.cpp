#include "audio/corpus.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace emoleak::audio {

void DatasetSpec::validate() const {
  if (name.empty()) throw util::ConfigError{"DatasetSpec: name is empty"};
  if (emotions.empty()) throw util::ConfigError{"DatasetSpec: no emotions"};
  if (speaker_count < 1) throw util::ConfigError{"DatasetSpec: speaker_count < 1"};
  if (utterances_per_speaker_emotion < 1) {
    throw util::ConfigError{"DatasetSpec: utterances_per_speaker_emotion < 1"};
  }
  if (male_fraction < 0.0 || male_fraction > 1.0) {
    throw util::ConfigError{"DatasetSpec: male_fraction must be in [0,1]"};
  }
  if (expressiveness < 0.0) {
    throw util::ConfigError{"DatasetSpec: expressiveness must be >= 0"};
  }
  if (speaker_variability < 0.0) {
    throw util::ConfigError{"DatasetSpec: speaker_variability must be >= 0"};
  }
  synth.validate();
}

DatasetSpec savee_spec() {
  DatasetSpec s;
  s.name = "SAVEE";
  s.emotions = seven_emotions();
  s.speaker_count = 4;
  // 120 utterances per speaker over 7 emotions: SAVEE actually has 30
  // neutral + 15 of each other emotion; we use ~17 per emotion so the
  // total matches 480.
  s.utterances_per_speaker_emotion = 17;
  s.male_fraction = 1.0;  // 4 native English male speakers
  // Moderately acted portrayals + real inter-speaker diversity makes
  // SAVEE markedly harder than TESS (paper: ~53% vs ~95%).
  s.expressiveness = 0.60;
  s.speaker_variability = 0.95;
  s.expressiveness_jitter = 0.22;
  s.synth.target_duration_s = 2.4;  // full sentences
  return s;
}

DatasetSpec tess_spec() {
  DatasetSpec s;
  s.name = "TESS";
  s.emotions = seven_emotions();
  s.speaker_count = 2;
  s.utterances_per_speaker_emotion = 200;  // 2 x 7 x 200 = 2800
  s.male_fraction = 0.0;                   // two female actors
  // Highly expressive, studio-consistent portrayals.
  s.expressiveness = 1.0;
  s.speaker_variability = 0.30;
  s.expressiveness_jitter = 0.03;
  s.synth.target_duration_s = 1.5;  // "Say the word ..." carrier phrase
  return s;
}

DatasetSpec cremad_spec() {
  DatasetSpec s;
  s.name = "CREMA-D";
  s.emotions = six_emotions();
  s.speaker_count = 91;
  s.utterances_per_speaker_emotion = 13;  // 91 x 6 x 13 = 7098 (~7442)
  s.male_fraction = 0.53;                 // 48 male / 43 female
  // Crowd-sourced actors: varied, often subdued portrayals with high
  // speaker diversity.
  s.expressiveness = 1.0;
  s.speaker_variability = 0.75;
  s.expressiveness_jitter = 0.18;
  s.synth.target_duration_s = 2.0;
  return s;
}

DatasetSpec scaled_spec(DatasetSpec spec, double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw util::ConfigError{"scaled_spec: fraction must be in (0,1]"};
  }
  spec.utterances_per_speaker_emotion = std::max(
      1, static_cast<int>(std::round(spec.utterances_per_speaker_emotion * fraction)));
  return spec;
}

Corpus::Corpus(DatasetSpec spec, std::uint64_t seed)
    : spec_{std::move(spec)}, seed_{seed} {
  spec_.validate();
  util::Rng rng{seed_};
  util::Rng speaker_rng = rng.fork(0xA11CE);
  speakers_.reserve(static_cast<std::size_t>(spec_.speaker_count));
  const int male_count = static_cast<int>(
      std::round(spec_.male_fraction * spec_.speaker_count));
  for (int s = 0; s < spec_.speaker_count; ++s) {
    const Gender g = s < male_count ? Gender::kMale : Gender::kFemale;
    speakers_.push_back(
        SpeakerVoice::sample(g, spec_.speaker_variability, speaker_rng));
  }
  entries_.reserve(spec_.total_utterances());
  std::size_t index = 0;
  for (int s = 0; s < spec_.speaker_count; ++s) {
    for (const Emotion e : spec_.emotions) {
      for (int u = 0; u < spec_.utterances_per_speaker_emotion; ++u) {
        entries_.push_back(UtteranceInfo{index++, s, e});
      }
    }
  }
}

Utterance Corpus::synthesize(std::size_t index) const {
  if (index >= entries_.size()) {
    throw util::DataError{"Corpus::synthesize: index out of range"};
  }
  const UtteranceInfo& info = entries_[index];
  util::Rng base{seed_};
  util::Rng rng = base.fork(0xBEEF0000ULL + index);
  // Acting inconsistency: expressiveness varies per utterance.
  const double expr = std::max(
      0.0, spec_.expressiveness *
               (1.0 + rng.normal(0.0, spec_.expressiveness_jitter)));
  const EmotionProfile profile = scaled_profile(info.emotion, expr);
  Utterance u = synthesize_utterance(
      speakers_[static_cast<std::size_t>(info.speaker_id)], profile,
      spec_.synth, rng);
  u.emotion = info.emotion;
  u.speaker_id = info.speaker_id;
  return u;
}

std::vector<std::string> Corpus::class_names() const {
  return emotion_names(spec_.emotions);
}

}  // namespace emoleak::audio
