#include "common.h"

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>
#include <utility>

#include "util/parallel.h"

namespace emoleak::bench {

namespace {

core::ClassifierResult run_cell(const Cell& cell,
                                const core::ExtractedData& data,
                                bool paper_exact_cnn) {
  if (cell.classifier) {
    const std::size_t folds = cell.protocol == Protocol::kTenFold ? 10 : 0;
    core::ClassifierResult r = core::evaluate_classical(
        *cell.classifier, data.features, kBenchSeed, folds);
    r.classifier = cell.label;
    return r;
  }
  core::CnnRunConfig cnn;
  cnn.train.epochs = cell.epochs;
  if (paper_exact_cnn) cnn.arch = nn::CnnConfig::paper_exact();
  const core::CnnResult r =
      cell.cnn == Cnn::kTimefreq
          ? core::evaluate_timefreq_cnn(data.features, cnn)
          : core::evaluate_spectrogram_cnn(data.spectrograms, data.image_size,
                                           data.features.y,
                                           data.features.class_count, cnn);
  return {cell.label, r.accuracy, r.confusion};
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv, Extra extra) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--paper-exact") {
      opts.paper_exact = true;
    } else if (arg == "--full" && extra == Extra::kFull) {
      opts.full = true;
    } else if (arg == "--json" && extra == Extra::kJson && i + 1 < argc &&
               !std::string_view{argv[i + 1]}.starts_with("--")) {
      opts.json_path = argv[++i];
    } else {
      std::cerr << "error: unknown argument or missing value: '" << arg;
      if (arg == "--json" && i + 1 < argc) std::cerr << ' ' << argv[i + 1];
      std::cerr << "'\n";
      std::exit(2);
    }
  }
  return opts;
}

std::vector<Cell> loudspeaker_cells(const std::array<double, 5>& paper,
                                    int tf_epochs, int spec_epochs) {
  std::vector<Cell> cells;
  for (std::unique_ptr<ml::Classifier>& c : core::loudspeaker_classifiers()) {
    cells.push_back({c->name(), std::move(c), {}, paper[cells.size()]});
  }
  cells.push_back({"CNN (time-frequency)", {}, Cnn::kTimefreq, paper[3],
                   tf_epochs});
  cells.push_back({"CNN (spectrogram)", {}, Cnn::kSpectrogram, paper[4],
                   spec_epochs});
  return cells;
}

std::vector<Cell> ear_speaker_cells(const std::array<double, 4>& paper,
                                    int tf_epochs) {
  std::vector<Cell> cells;
  for (std::unique_ptr<ml::Classifier>& c : core::ear_speaker_classifiers()) {
    cells.push_back({c->name() + " (10-fold CV)", std::move(c), {},
                     paper[cells.size()], 0, Protocol::kTenFold});
  }
  cells.push_back({"CNN (time-frequency)", {}, Cnn::kTimefreq, paper[3],
                   tf_epochs});
  return cells;
}

std::vector<ColumnResult> run_columns(const std::vector<Column>& columns,
                                      bool paper_exact_cnn) {
  // A region reached from inside a parallel task runs inline
  // (util/thread_pool.h), so a phase fans out either its own tasks or
  // the work inside them (regions, CV folds, forest trees, the CNN's
  // conv split). Captures always fan out. Cells fan out only when every
  // thread gets at least two: with fewer, the slowest cell would run on
  // one core while the others idle, so they run one after another and
  // fan out inside. Measured on every table (DESIGN.md §5b).
  std::vector<ColumnResult> out;
  for (core::ExtractedData& data : util::parallel_map(
           util::Parallelism{}, columns.size(),
           [&](std::size_t c) { return core::capture(columns[c].scenario); })) {
    out.push_back({std::move(data), {}});
  }
  std::vector<std::pair<std::size_t, const Cell*>> cells;  // (column, cell)
  for (std::size_t c = 0; c < columns.size(); ++c) {
    for (const Cell& cell : columns[c].cells) cells.emplace_back(c, &cell);
  }
  const bool fan_out = cells.size() >= 2 * util::Parallelism{}.resolved();
  std::vector<core::ClassifierResult> results = util::parallel_map(
      fan_out ? util::Parallelism{} : util::Parallelism::serial_only(),
      cells.size(), [&](std::size_t i) {
        const auto [c, cell] = cells[i];
        return run_cell(*cell, out[c].data, paper_exact_cnn);
      });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[cells[i].first].cells.push_back(std::move(results[i]));
  }
  return out;
}

std::vector<Comparison> comparisons(const Column& column,
                                    const ColumnResult& result) {
  std::vector<Comparison> rows;
  for (std::size_t k = 0; k < column.cells.size(); ++k) {
    rows.push_back({column.cells[k].label, column.cells[k].paper,
                    result.cells[k].accuracy});
  }
  return rows;
}

void print_header(const std::string& experiment, const std::string& what) {
  std::cout << "\n=== EmoLeak reproduction: " << experiment << " ===\n"
            << what << "\n\n";
}

void print_comparisons(const std::vector<Comparison>& rows,
                       const std::string& metric) {
  util::TablePrinter t{{"configuration", "paper " + metric,
                        "measured " + metric, "delta"}};
  for (const Comparison& row : rows) {
    std::string paper = "-";
    std::string delta = "-";
    if (row.paper.has_value()) {
      paper = util::percent(*row.paper);
      const double d = (row.measured - *row.paper) * 100.0;
      delta.clear();
      if (d >= 0) delta += '+';
      delta += util::fixed(d, 1);
      delta += "pp";
    }
    t.add_row({row.label, paper, util::percent(row.measured), delta});
  }
  std::cout << t.str();
}

std::string ascii_image(const std::vector<double>& image, std::size_t width,
                        std::size_t height) {
  static const char kLevels[] = " .:-=+*#%@";
  std::string out;
  out.reserve((width + 1) * height);
  for (std::size_t r = 0; r < height; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      const double v = image[r * width + c];
      const int idx = std::min(9, std::max(0, static_cast<int>(v * 10.0)));
      out += kLevels[idx];
    }
    out += '\n';
  }
  return out;
}

}  // namespace emoleak::bench
