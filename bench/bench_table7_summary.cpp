// Reproduces Table VII: summary of the best vibration-domain (EmoLeak)
// accuracy per dataset against audio-domain prior work (paper §V-E).
//
// The audio-domain numbers are the paper's citations ([26], [32],
// [42]-[45]) and are reproduced verbatim as reference points; the
// vibration-domain numbers are measured from our pipeline using each
// dataset's best-performing method. The CNN keeps its fast widths:
// --paper-exact does not apply here.
#include <iostream>

#include "common.h"
#include "ml/logistic.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Table VII",
                      "Summary: vibration domain (EmoLeak) vs audio domain "
                      "(prior work)");

  const auto column = [&](audio::DatasetSpec dataset, phone::PhoneProfile phone,
                          double fraction, bench::Cell cell) {
    core::ScenarioConfig sc = core::loudspeaker_scenario(
        std::move(dataset), std::move(phone), bench::kBenchSeed);
    sc.corpus_fraction = opts.fraction(fraction);
    return bench::Column{sc, {std::move(cell)}};
  };
  // Each dataset's best method in the paper: the time-frequency CNN on
  // TESS (OnePlus 7T) and CREMA-D (Galaxy S10), Logistic on SAVEE
  // (OnePlus 7T). A cell with no classifier trains the CNN.
  const bench::Cell cnn{.epochs = opts.quick ? 15 : 40};
  const std::vector<bench::ColumnResult> results = bench::run_columns({
      column(audio::tess_spec(), phone::oneplus_7t(), 1.0, cnn),
      column(audio::savee_spec(), phone::oneplus_7t(), 1.0,
             {.classifier = std::make_shared<ml::LogisticRegression>()}),
      column(audio::cremad_spec(), phone::galaxy_s10(), 0.6, cnn),
  });
  const auto measured = [&](std::size_t c) {
    return util::percent(results[c].cells.front().accuracy);
  };

  util::TablePrinter t{{"dataset", "audio domain (prior work)",
                        "vibration, paper", "vibration, ours"}};
  t.add_row({"SAVEE", "91.7% [42], 85.0% [43]", "53.77%", measured(1)});
  t.add_row({"TESS", "99.57% [26], 97.0% [44]", "95.30%", measured(0)});
  t.add_row({"CREMA-D", "94.99% [32], 64.0% [45]", "60.32%", measured(2)});
  std::cout << t.str();
  std::cout << "\nShape check: on TESS the zero-permission motion sensor gets "
               "within a few points of dedicated audio-domain classifiers; on "
               "SAVEE/CREMA-D it reaches ~3.5-4x the random-guess rate — the "
               "paper's Table VII conclusion that vibration leakage is "
               "comparable to audio for expressive speech.\n";
  return 0;
}
