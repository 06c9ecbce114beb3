// Shared infrastructure for the table/figure-reproduction benches.
//
// Every bench binary regenerates one artifact from the paper's
// evaluation section and prints the paper's reported value next to the
// measured one. Seeds are fixed so output is reproducible run-to-run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/attack.h"
#include "util/table.h"

namespace emoleak::bench {

/// The fixed seed every bench uses; results in EXPERIMENTS.md were
/// recorded with this seed.
inline constexpr std::uint64_t kBenchSeed = 43;

/// Parses the bench flags and exits 2, naming the argument, on any
/// argument it does not know. `--quick` scales corpora down ~4x for
/// smoke runs; `--paper-exact` switches the CNNs to the published widths
/// (slow; Table VII ignores it). A bench that acts on `--full` (Table IV
/// on the whole CREMA-D corpus) or `--json PATH` (bench_tasks' report)
/// passes it as `extra`; every other bench refuses it, and `--json`
/// refuses a missing path or one that starts with `--`.
struct BenchOptions {
  enum class Extra { kNone, kFull, kJson };

  bool quick = false;
  bool paper_exact = false;
  bool full = false;
  std::string json_path;

  [[nodiscard]] static BenchOptions parse(int argc, char** argv,
                                          Extra extra = Extra::kNone);

  /// Scales a corpus fraction for quick mode.
  [[nodiscard]] double fraction(double full) const {
    return quick ? full * 0.25 : full;
  }
};

/// The paper's protocols. The CNNs always train on a stratified 80/20
/// split; only the classical methods take 10-fold CV.
enum class Protocol { kHoldout, kTenFold };

/// The CNN a cell trains when it names no classical classifier.
enum class Cnn { kTimefreq, kSpectrogram };

/// One cell of a paper table: a method evaluated on its column's
/// scenario.
struct Cell {
  std::string label{};
  /// The classical classifier's prototype; null for a CNN cell.
  std::shared_ptr<const ml::Classifier> classifier{};
  Cnn cnn = Cnn::kTimefreq;
  std::optional<double> paper{};  ///< fraction in [0,1]; nullopt = not reported
  int epochs = 0;  ///< CNN cells only
  Protocol protocol = Protocol::kHoldout;
};

/// A scenario, captured once, and the cells evaluated on its capture.
struct Column {
  core::ScenarioConfig scenario;
  std::vector<Cell> cells;
};

/// A column's capture and one result per cell, in cell order; each
/// result's `classifier` is the cell's label.
struct ColumnResult {
  core::ExtractedData data;
  std::vector<core::ClassifierResult> cells;
};

/// The loudspeaker cells of Tables III-V: core::loudspeaker_classifiers
/// (80/20), the time-frequency and the spectrogram CNN, with the paper's
/// values in that order.
[[nodiscard]] std::vector<Cell> loudspeaker_cells(
    const std::array<double, 5>& paper, int tf_epochs, int spec_epochs);

/// The ear-speaker cells of Table VI: core::ear_speaker_classifiers
/// (10-fold CV, Fig. 6b caption) and the time-frequency CNN.
[[nodiscard]] std::vector<Cell> ear_speaker_cells(
    const std::array<double, 4>& paper, int tf_epochs);

/// Captures every column, then evaluates every cell (classical seeds
/// kBenchSeed; CNNs train with CnnRunConfig's defaults, at the published
/// widths when `paper_exact_cnn`). Results are bit-identical to calling
/// core::capture and core::evaluate_* one after another.
[[nodiscard]] std::vector<ColumnResult> run_columns(
    const std::vector<Column>& columns, bool paper_exact_cnn = false);

/// One row of a paper-vs-measured comparison.
struct Comparison {
  std::string label;
  std::optional<double> paper;  ///< fraction in [0,1]; nullopt = not reported
  double measured = 0.0;
};

/// A column's cells against their paper values, in cell order.
[[nodiscard]] std::vector<Comparison> comparisons(const Column& column,
                                                  const ColumnResult& result);

/// Prints a standard header naming the experiment.
void print_header(const std::string& experiment, const std::string& what);

/// Renders comparisons as a table with a deviation column.
void print_comparisons(const std::vector<Comparison>& rows,
                       const std::string& metric = "accuracy");

/// Renders a row of per-pixel characters for terminal spectrogram art.
[[nodiscard]] std::string ascii_image(const std::vector<double>& image,
                                      std::size_t width, std::size_t height);

}  // namespace emoleak::bench
