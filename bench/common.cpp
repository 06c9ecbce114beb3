#include "common.h"

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "util/table.h"

namespace emoleak::bench {

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) opts.quick = true;
    if (std::strcmp(argv[i], "--paper-exact") == 0) opts.paper_exact = true;
  }
  return opts;
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

MethodAccuracies run_loudspeaker_methods(const core::ExtractedData& data,
                                         const MethodConfig& config) {
  MethodAccuracies out;
  // The classical sweep is a per-config fan-out: each classifier's
  // split evaluation is independent and deterministic given the seed.
  const std::vector<std::unique_ptr<ml::Classifier>> classical =
      core::loudspeaker_classifiers();
  const std::vector<double> accuracies = util::parallel_map(
      config.parallelism, classical.size(), [&](std::size_t i) {
        return core::evaluate_classical(*classical[i], data.features,
                                        kBenchSeed)
            .accuracy;
      });
  out.logistic = accuracies[0];
  out.multiclass = accuracies[1];
  out.lmt = accuracies[2];

  core::CnnRunConfig tf;
  tf.train.epochs = config.tf_epochs;
  if (config.paper_exact_cnn) tf.arch = nn::CnnConfig::paper_exact();
  out.timefreq_cnn = core::evaluate_timefreq_cnn(data.features, tf).accuracy;

  if (config.run_spectrogram) {
    core::CnnRunConfig spec;
    spec.train.epochs = config.spec_epochs;
    if (config.paper_exact_cnn) spec.arch = nn::CnnConfig::paper_exact();
    out.spectrogram_cnn =
        core::evaluate_spectrogram_cnn(data.spectrograms, data.image_size,
                                       data.features.y,
                                       data.features.class_count, spec)
            .accuracy;
  }
  return out;
}

EarMethodAccuracies run_ear_methods(const core::ExtractedData& data,
                                    const MethodConfig& config) {
  EarMethodAccuracies out;
  // The paper uses 10-fold cross-validation in the ear-speaker setting
  // (Fig. 6b caption).
  // Folds parallelize inside each evaluation (10-fold CV), which beats
  // fanning out the three classifiers: fold training dominates.
  std::vector<double> accuracies;
  for (const auto& classifier : core::ear_speaker_classifiers()) {
    accuracies.push_back(core::evaluate_classical(*classifier, data.features,
                                                  kBenchSeed, /*cv=*/10,
                                                  config.parallelism)
                             .accuracy);
  }
  out.random_forest = accuracies[0];
  out.random_subspace = accuracies[1];
  out.lmt = accuracies[2];
  core::CnnRunConfig tf;
  tf.train.epochs = config.tf_epochs;
  if (config.paper_exact_cnn) tf.arch = nn::CnnConfig::paper_exact();
  out.timefreq_cnn = core::evaluate_timefreq_cnn(data.features, tf).accuracy;
  return out;
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
