// Shared infrastructure for the table/figure-reproduction benches.
//
// Every bench binary regenerates one artifact from the paper's
// evaluation section and prints the paper's reported value next to the
// measured one. Seeds are fixed so output is reproducible run-to-run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/attack.h"
#include "util/parallel.h"
#include "util/table.h"

namespace emoleak::bench {

/// The fixed seed every bench uses; results in EXPERIMENTS.md were
/// recorded with this seed.
inline constexpr std::uint64_t kBenchSeed = 43;

/// Parses the common bench flags. `--quick` scales corpora down ~4x for
/// smoke runs; `--paper-exact` switches the CNNs to the published
/// widths (slow).
struct BenchOptions {
  bool quick = false;
  bool paper_exact = false;

  [[nodiscard]] static BenchOptions parse(int argc, char** argv);

  /// Scales a corpus fraction for quick mode.
  [[nodiscard]] double fraction(double full) const {
    return quick ? full * 0.25 : full;
  }
};

/// One row of a paper-vs-measured comparison.
struct Comparison {
  std::string label;
  std::optional<double> paper;  ///< fraction in [0,1]; nullopt = not reported
  double measured = 0.0;
};

/// Prints a standard header naming the experiment.
void print_header(const std::string& experiment, const std::string& what);

/// Renders comparisons as a table with a deviation column.
void print_comparisons(const std::vector<Comparison>& rows,
                       const std::string& metric = "accuracy");

/// Runs the three classical loudspeaker classifiers plus both CNNs on
/// extracted data, returning (classifier name, accuracy) pairs in the
/// order of the paper's tables: Logistic, multiClassClassifier,
/// trees.lmt, CNN (time-frequency), CNN (spectrogram).
struct MethodAccuracies {
  double logistic = 0.0;
  double multiclass = 0.0;
  double lmt = 0.0;
  double timefreq_cnn = 0.0;
  double spectrogram_cnn = 0.0;
};

struct MethodConfig {
  int tf_epochs = 40;
  int spec_epochs = 22;
  bool paper_exact_cnn = false;
  bool run_spectrogram = true;
  /// Threads for the classical-classifier sweep (and the CV folds
  /// inside each evaluation). Accuracies are bit-identical at any
  /// thread count.
  util::Parallelism parallelism;
};

[[nodiscard]] MethodAccuracies run_loudspeaker_methods(
    const core::ExtractedData& data, const MethodConfig& config);

/// Ear-speaker method stable (Table VI): RandomForest, RandomSubSpace,
/// trees.lmt with 10-fold CV plus the time-frequency CNN.
struct EarMethodAccuracies {
  double random_forest = 0.0;
  double random_subspace = 0.0;
  double lmt = 0.0;
  double timefreq_cnn = 0.0;
};

[[nodiscard]] EarMethodAccuracies run_ear_methods(
    const core::ExtractedData& data, const MethodConfig& config);

/// core::capture through the process-wide dataset cache: benches that
/// revisit a scenario (summary tables, confusion matrices, CV configs
/// differing only in classifier) build each dataset once per process.
/// Keep the returned shared_ptr alive for as long as the data is used.
[[nodiscard]] std::shared_ptr<const core::ExtractedData> capture_cached(
    const core::ScenarioConfig& config);

/// Prints the `dataset_cache.*` registry counters (hits, builds, memory
/// entries/bytes, per-tier hits/misses), the bench-side analogue of the
/// serve layer's stats line.
void print_dataset_cache_stats();

/// Renders a row of per-pixel characters for terminal spectrogram art.
[[nodiscard]] std::string ascii_image(const std::vector<double>& image,
                                      std::size_t width, std::size_t height);

}  // namespace emoleak::bench
