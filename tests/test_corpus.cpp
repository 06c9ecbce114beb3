// Tests for dataset specs and corpus generation (audio/corpus.h).
#include "audio/corpus.h"

#include <gtest/gtest.h>

#include <map>

#include "util/error.h"

namespace {

using emoleak::audio::Corpus;
using emoleak::audio::cremad_spec;
using emoleak::audio::DatasetSpec;
using emoleak::audio::Emotion;
using emoleak::audio::savee_spec;
using emoleak::audio::scaled_spec;
using emoleak::audio::tess_spec;
using emoleak::audio::Utterance;

TEST(DatasetSpecTest, SaveeMatchesPaperStatistics) {
  const DatasetSpec s = savee_spec();
  EXPECT_EQ(s.speaker_count, 4);         // 4 native English male speakers
  EXPECT_EQ(s.emotions.size(), 7u);      // seven emotions
  EXPECT_DOUBLE_EQ(s.male_fraction, 1.0);
  EXPECT_NEAR(static_cast<double>(s.total_utterances()), 480.0, 10.0);
}

TEST(DatasetSpecTest, TessMatchesPaperStatistics) {
  const DatasetSpec s = tess_spec();
  EXPECT_EQ(s.speaker_count, 2);  // two female actors
  EXPECT_EQ(s.emotions.size(), 7u);
  EXPECT_DOUBLE_EQ(s.male_fraction, 0.0);
  EXPECT_EQ(s.total_utterances(), 2800u);
}

TEST(DatasetSpecTest, CremadMatchesPaperStatistics) {
  const DatasetSpec s = cremad_spec();
  EXPECT_EQ(s.speaker_count, 91);   // 91 actors
  EXPECT_EQ(s.emotions.size(), 6u); // six emotions (no surprise)
  EXPECT_NEAR(static_cast<double>(s.total_utterances()), 7442.0, 400.0);
}

TEST(DatasetSpecTest, TessIsMostConsistent) {
  // TESS: most expressive, least speaker variability — this is what
  // reproduces the paper's accuracy ordering.
  EXPECT_GT(tess_spec().expressiveness, savee_spec().expressiveness);
  EXPECT_LT(tess_spec().speaker_variability, savee_spec().speaker_variability);
  EXPECT_LT(tess_spec().expressiveness_jitter, cremad_spec().expressiveness_jitter);
}

TEST(DatasetSpecTest, ValidationCatchesBadSpecs) {
  DatasetSpec s = tess_spec();
  s.name.clear();
  EXPECT_THROW(s.validate(), emoleak::util::ConfigError);
  s = tess_spec();
  s.speaker_count = 0;
  EXPECT_THROW(s.validate(), emoleak::util::ConfigError);
  s = tess_spec();
  s.male_fraction = 1.5;
  EXPECT_THROW(s.validate(), emoleak::util::ConfigError);
  s = tess_spec();
  s.emotions.clear();
  EXPECT_THROW(s.validate(), emoleak::util::ConfigError);
}

TEST(ScaledSpecTest, ScalesUtteranceCount) {
  const DatasetSpec half = scaled_spec(tess_spec(), 0.5);
  EXPECT_EQ(half.utterances_per_speaker_emotion, 100);
  EXPECT_EQ(half.total_utterances(), 1400u);
}

TEST(ScaledSpecTest, NeverBelowOne) {
  const DatasetSpec tiny = scaled_spec(tess_spec(), 0.0001);
  EXPECT_EQ(tiny.utterances_per_speaker_emotion, 1);
}

TEST(ScaledSpecTest, InvalidFractionThrows) {
  EXPECT_THROW((void)scaled_spec(tess_spec(), 0.0), emoleak::util::ConfigError);
  EXPECT_THROW((void)scaled_spec(tess_spec(), 1.5), emoleak::util::ConfigError);
}

TEST(CorpusTest, EntriesCoverAllSpeakerEmotionPairs) {
  const Corpus c{scaled_spec(savee_spec(), 0.2), 1};
  std::map<std::pair<int, Emotion>, int> counts;
  for (const auto& e : c.entries()) {
    ++counts[{e.speaker_id, e.emotion}];
  }
  EXPECT_EQ(counts.size(), 4u * 7u);
  for (const auto& [key, n] : counts) {
    EXPECT_EQ(n, c.spec().utterances_per_speaker_emotion);
  }
}

TEST(CorpusTest, SynthesizeIsDeterministicPerIndex) {
  const Corpus a{scaled_spec(tess_spec(), 0.01), 42};
  const Corpus b{scaled_spec(tess_spec(), 0.01), 42};
  const Utterance ua = a.synthesize(3);
  const Utterance ub = b.synthesize(3);
  ASSERT_EQ(ua.samples.size(), ub.samples.size());
  for (std::size_t i = 0; i < ua.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(ua.samples[i], ub.samples[i]);
  }
}

TEST(CorpusTest, DifferentSeedsDifferentAudio) {
  const Corpus a{scaled_spec(tess_spec(), 0.01), 42};
  const Corpus b{scaled_spec(tess_spec(), 0.01), 43};
  const Utterance ua = a.synthesize(0);
  const Utterance ub = b.synthesize(0);
  bool any_diff = ua.samples.size() != ub.samples.size();
  for (std::size_t i = 0; !any_diff && i < ua.samples.size(); ++i) {
    any_diff = ua.samples[i] != ub.samples[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(CorpusTest, SynthesisIndependentOfCallOrder) {
  const Corpus c{scaled_spec(tess_spec(), 0.01), 7};
  const Utterance first = c.synthesize(5);
  (void)c.synthesize(0);
  (void)c.synthesize(10);
  const Utterance again = c.synthesize(5);
  ASSERT_EQ(first.samples.size(), again.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(first.samples[i], again.samples[i]);
  }
}

TEST(CorpusTest, UtteranceMetadataMatchesEntry) {
  const Corpus c{scaled_spec(savee_spec(), 0.2), 9};
  for (const std::size_t idx : {0u, 10u, 50u}) {
    const Utterance u = c.synthesize(idx);
    EXPECT_EQ(u.emotion, c.entries()[idx].emotion);
    EXPECT_EQ(u.speaker_id, c.entries()[idx].speaker_id);
  }
}

TEST(CorpusTest, OutOfRangeThrows) {
  const Corpus c{scaled_spec(tess_spec(), 0.01), 1};
  EXPECT_THROW((void)c.synthesize(c.size()), emoleak::util::DataError);
}

TEST(CorpusTest, ClassNamesMatchEmotionOrder) {
  const Corpus c{tess_spec(), 1};
  const auto names = c.class_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "Angry");
  EXPECT_EQ(names[6], "Sad");
}

TEST(CorpusTest, SpeakersMatchGenderMix) {
  const Corpus savee{scaled_spec(savee_spec(), 0.1), 3};
  for (const auto& v : savee.speakers()) {
    EXPECT_EQ(static_cast<int>(v.gender),
              static_cast<int>(emoleak::audio::Gender::kMale));
  }
  const Corpus tess{scaled_spec(tess_spec(), 0.01), 3};
  for (const auto& v : tess.speakers()) {
    EXPECT_EQ(static_cast<int>(v.gender),
              static_cast<int>(emoleak::audio::Gender::kFemale));
  }
}

}  // namespace
