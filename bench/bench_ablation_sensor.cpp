// Ablation: accelerometer vs gyroscope (paper §III-B1).
//
// The paper justifies using the accelerometer by citing prior findings
// (Spearphone, AccelEve) that the gyroscope's response to speech
// playback is far weaker when the vibration arrives through the shared
// board rather than a shared external surface. We model the gyroscope
// as a conduction channel with ~12x lower effective response in the
// speech band and a higher relative noise floor, then compare the
// attack through both sensors.
#include <iostream>

#include "common.h"
#include "ml/logistic.h"

int main(int argc, char** argv) {
  using namespace emoleak;
  const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
  bench::print_header("Ablation: sensor choice",
                      "Accelerometer vs gyroscope response (TESS, "
                      "loudspeaker, OnePlus 7T) — reproduces the SIII-B1 "
                      "design decision");

  const auto run = [&](const phone::PhoneProfile& profile) {
    core::ScenarioConfig sc = core::loudspeaker_scenario(
        audio::tess_spec(), profile, bench::kBenchSeed);
    sc.corpus_fraction = opts.fraction(0.35);
    const core::ExtractedData data = core::capture(sc);
    double acc = 1.0 / 7.0;
    if (data.features.size() > 60) {
      acc = core::evaluate_classical(ml::LogisticRegression{}, data.features,
                                     bench::kBenchSeed)
                .accuracy;
    }
    return std::pair{data.extraction_rate, acc};
  };

  const phone::PhoneProfile accel = phone::oneplus_7t();
  const phone::PhoneProfile gyro = phone::as_gyroscope(phone::oneplus_7t());

  const auto [accel_extr, accel_acc] = run(accel);
  const auto [gyro_extr, gyro_acc] = run(gyro);

  util::TablePrinter t{{"sensor", "extraction rate", "Logistic accuracy"}};
  t.add_row({"accelerometer (paper's choice)", util::percent(accel_extr),
             util::percent(accel_acc)});
  t.add_row({"gyroscope (weak speech response)", util::percent(gyro_extr),
             util::percent(gyro_acc)});
  std::cout << t.str();
  std::cout << "\nShape check: the gyroscope's weak response collapses both "
               "region extraction and classification toward chance, which is "
               "why EmoLeak (like Spearphone and AccelEve) reads the "
               "accelerometer.\n";
  return 0;
}
