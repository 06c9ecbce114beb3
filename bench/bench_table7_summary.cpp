// Reproduces Table VII: summary of the best vibration-domain (EmoLeak)
// accuracy per dataset against audio-domain prior work (paper §V-E).
//
// The audio-domain numbers are the paper's citations ([26], [32],
// [42]-[45]) and are reproduced verbatim as reference points; the
// vibration-domain numbers are measured from our pipeline using each
// dataset's best-performing method.
#include <iostream>

#include "common.h"
#include "ml/logistic.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Table VII",
                      "Summary: vibration domain (EmoLeak) vs audio domain "
                      "(prior work)");

  bench::MethodConfig method;
  method.tf_epochs = opts.quick ? 15 : 40;
  method.run_spectrogram = false;

  // TESS, loudspeaker, OnePlus 7T — best method: time-frequency CNN.
  core::ScenarioConfig tess = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), bench::kBenchSeed);
  tess.corpus_fraction = opts.fraction(1.0);
  const core::ExtractedData tess_data = core::capture(tess);
  core::CnnRunConfig tf;
  tf.train.epochs = method.tf_epochs;
  const double tess_acc =
      core::evaluate_timefreq_cnn(tess_data.features, tf).accuracy;

  // SAVEE, loudspeaker, OnePlus 7T — best classical: Logistic.
  core::ScenarioConfig savee = core::loudspeaker_scenario(
      audio::savee_spec(), phone::oneplus_7t(), bench::kBenchSeed);
  savee.corpus_fraction = opts.fraction(1.0);
  const double savee_acc =
      core::evaluate_classical(ml::LogisticRegression{},
                               core::capture(savee).features, bench::kBenchSeed)
          .accuracy;

  // CREMA-D, loudspeaker, Galaxy S10 — best method: time-frequency CNN.
  core::ScenarioConfig cremad = core::loudspeaker_scenario(
      audio::cremad_spec(), phone::galaxy_s10(), bench::kBenchSeed);
  cremad.corpus_fraction = opts.fraction(0.6);
  const double cremad_acc =
      core::evaluate_timefreq_cnn(core::capture(cremad).features, tf).accuracy;

  util::TablePrinter t{{"dataset", "audio domain (prior work)",
                        "vibration, paper", "vibration, ours"}};
  t.add_row({"SAVEE", "91.7% [42], 85.0% [43]", "53.77%",
             util::percent(savee_acc)});
  t.add_row({"TESS", "99.57% [26], 97.0% [44]", "95.30%",
             util::percent(tess_acc)});
  t.add_row({"CREMA-D", "94.99% [32], 64.0% [45]", "60.32%",
             util::percent(cremad_acc)});
  std::cout << t.str();
  std::cout << "\nShape check: on TESS the zero-permission motion sensor gets "
               "within a few points of dedicated audio-domain classifiers; on "
               "SAVEE/CREMA-D it reaches ~3.5-4x the random-guess rate — the "
               "paper's Table VII conclusion that vibration leakage is "
               "comparable to audio for expressive speech.\n";
  return 0;
}
