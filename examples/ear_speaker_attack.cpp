// Example: the ear-speaker attack (paper contribution #2).
//
// During a normal handheld phone conversation the remote voice plays
// through the *ear speaker* at 36-46 dB — inaudible to bystanders and
// traditionally assumed to be too weak to matter. The paper shows that
// modern stereo-speaker phones leak enough vibration from the earpiece
// to classify the caller's emotion. This example walks through the
// three stages the paper describes:
//   (a) raw handheld capture — speech invisible under body motion,
//   (b) 8 Hz high-pass for region detection only,
//   (c) classification of features extracted from the *raw* samples.
#include <cstdlib>
#include <iostream>

#include "core/attack.h"
#include "ml/ensemble.h"
#include "util/table.h"

int main() {
  using namespace emoleak;

  core::ScenarioConfig scenario = core::ear_speaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), /*seed=*/7);
  scenario.corpus_fraction = 0.25;

  // Stage (a)/(b): show what the 8 Hz detection filter accomplishes.
  const phone::Recording rec =
      record_session(core::scenario_corpus(scenario), scenario.phone,
                     core::scenario_recorder(scenario));

  core::DetectorConfig unfiltered = core::handheld_detector_config();
  unfiltered.detection_highpass_hz = 0.0;
  const core::SpeechRegionDetector raw_det{unfiltered};
  const core::SpeechRegionDetector hpf_det{core::handheld_detector_config()};
  const auto raw_regions = raw_det.detect(rec.accel, rec.rate_hz);
  const auto hpf_regions = hpf_det.detect(rec.accel, rec.rate_hz);
  const double raw_rate =
      core::extraction_rate(core::label_regions(raw_regions, rec), rec);
  const double hpf_rate =
      core::extraction_rate(core::label_regions(hpf_regions, rec), rec);
  std::cout << "Word-region extraction from the handheld trace:\n"
            << "  without filter : " << util::percent(raw_rate)
            << " of played words (speech buried in hand/body motion)\n"
            << "  with 8 Hz HPF  : " << util::percent(hpf_rate)
            << " of played words (paper reports >= 45%)\n\n";

  // Stage (c): classify emotions from the raw-sample features with the
  // paper's ear-speaker classifier stable (Table VI).
  const core::ExtractedData data = core::extract(rec, scenario.pipeline);
  const core::ClassifierResult rf = core::evaluate_classical(
      ml::RandomForest{}, data.features, /*seed=*/9, /*cv=*/10);
  std::cout << "RandomForest, 10-fold cross-validation: "
            << util::percent(rf.accuracy) << " accuracy vs "
            << util::percent(1.0 / data.features.class_count)
            << " random guess — a "
            << util::fixed(rf.accuracy * data.features.class_count, 1)
            << "x improvement, matching the paper's ~4x claim.\n\n";
  std::cout << util::render_confusion(rf.confusion.counts(),
                                      data.features.class_names);
  std::cout << "\nTakeaway: even the quiet earpiece leaks the caller's "
               "emotional state through the zero-permission accelerometer.\n";
  return EXIT_SUCCESS;
}
