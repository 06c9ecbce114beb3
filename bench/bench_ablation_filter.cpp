// Ablation (extends Table I): how feature information gain and attack
// accuracy decay with the high-pass filter cutoff. Confirms the
// paper's design decision to extract features from raw samples and use
// filtering only for region detection.
#include <iostream>
#include <span>

#include "common.h"
#include "dsp/filter.h"
#include "features/features.h"
#include "features/info_gain.h"
#include "ml/logistic.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Ablation: filter cutoff",
                      "Feature information gain and accuracy vs high-pass "
                      "cutoff (TESS, ear speaker, handheld — where Table I "
                      "shows filtering destroys the features)");

  core::ScenarioConfig sc = core::ear_speaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), bench::kBenchSeed);
  sc.corpus_fraction = opts.fraction(0.35);
  const phone::Recording rec = record_session(
      core::scenario_corpus(sc), sc.phone, core::scenario_recorder(sc));
  const core::SpeechRegionDetector detector{sc.pipeline.detector};
  const auto labelled =
      core::label_regions(detector.detect(rec.accel, rec.rate_hz), rec);

  util::TablePrinter t{
      {"HPF cutoff", "mean info gain (bits)", "Logistic accuracy"}};
  for (const double cutoff : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    std::vector<double> trace = rec.accel;
    if (cutoff > 0.0) {
      dsp::BiquadCascade hpf =
          dsp::BiquadCascade::butterworth_highpass(2, cutoff, rec.rate_hz);
      trace = hpf.filtfilt(trace);
    }
    ml::Dataset features;
    features.class_count = static_cast<int>(rec.dataset.emotions.size());
    features.feature_names = features::feature_names();
    const std::span<const double> span{trace};
    for (const auto& lr : labelled) {
      features.x.push_back(features::extract_features(
          span.subspan(lr.region.start, lr.region.length()), rec.rate_hz));
      int cls = 0;
      for (std::size_t i = 0; i < rec.dataset.emotions.size(); ++i) {
        if (rec.dataset.emotions[i] == lr.emotion) cls = static_cast<int>(i);
      }
      features.y.push_back(cls);
    }
    features.drop_invalid();
    const auto gains = features::information_gain_all(
        features.x, features.y, features.class_count);
    double mean_gain = 0.0;
    for (const double g : gains) mean_gain += g;
    mean_gain /= static_cast<double>(gains.size());
    const double acc = core::evaluate_classical(ml::LogisticRegression{},
                                                features, bench::kBenchSeed)
                           .accuracy;
    t.add_row({cutoff == 0.0 ? "none (paper's choice)"
                             : util::fixed(cutoff, 1) + " Hz",
               util::fixed(mean_gain), util::percent(acc)});
  }
  std::cout << t.str();
  std::cout << "\nShape check: the unfiltered features are the most "
               "accurate — even a 0.5 Hz high-pass costs several points "
               "because the amplitude features key on sub-1 Hz block-level "
               "information (Table I). That is why the paper applies the "
               "8 Hz filter only during region *detection* and never before "
               "feature extraction (SIII-B2).\n";
  return 0;
}
