// The paper-table runner (bench/common.h): a cell list run by
// run_columns must give exactly what a plain serial loop of
// core::capture and core::evaluate_* gives, whichever level fans out.
// Its eight cells fan out on a pool of at most four threads; captures
// always do.
#include "common.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ml/ensemble.h"
#include "ml/logistic.h"
#include "ml/multiclass.h"

namespace {

using emoleak::bench::Cell;
using emoleak::bench::Column;
using emoleak::bench::ColumnResult;
using emoleak::bench::kBenchSeed;
using emoleak::bench::Protocol;
using emoleak::core::ClassifierResult;
using emoleak::core::ExtractedData;

constexpr int kEpochs = 3;

std::vector<Column> small_columns() {
  using namespace emoleak;
  const std::vector<Cell> cells = {
      {"Logistic", std::make_shared<ml::LogisticRegression>(), {}, 0.95},
      {"RandomForest (10-fold CV)", std::make_shared<ml::RandomForest>(), {},
       0.60, 0, Protocol::kTenFold},
      {"CNN (time-frequency)", nullptr, bench::Cnn::kTimefreq, std::nullopt,
       kEpochs},
      {"multiClassClassifier", std::make_shared<ml::OneVsRestLogistic>()},
  };
  core::ScenarioConfig loud = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), kBenchSeed);
  loud.corpus_fraction = 0.08;
  core::ScenarioConfig ear = core::ear_speaker_scenario(
      audio::tess_spec(), phone::oneplus_9(), kBenchSeed);
  ear.corpus_fraction = 0.1;
  return {{loud, cells}, {ear, cells}};
}

/// The serial reference: one capture, then each cell, in order.
std::vector<ClassifierResult> direct(const Column& column) {
  using namespace emoleak;
  const ExtractedData data = core::capture(column.scenario);
  core::CnnRunConfig cnn;
  cnn.train.epochs = kEpochs;
  const core::CnnResult tf = core::evaluate_timefreq_cnn(data.features, cnn);
  return {
      core::evaluate_classical(ml::LogisticRegression{}, data.features,
                               kBenchSeed),
      core::evaluate_classical(ml::RandomForest{}, data.features, kBenchSeed,
                               /*cv_folds=*/10,
                               util::Parallelism::serial_only()),
      ClassifierResult{"", tf.accuracy, tf.confusion},
      core::evaluate_classical(ml::OneVsRestLogistic{}, data.features,
                               kBenchSeed),
  };
}

TEST(BenchRunnerTest, CellsEqualSerialCaptureAndEvaluate) {
  const std::vector<Column> columns = small_columns();
  const std::vector<ColumnResult> results =
      emoleak::bench::run_columns(columns);
  ASSERT_EQ(results.size(), columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const ExtractedData reference = emoleak::core::capture(columns[c].scenario);
    EXPECT_EQ(results[c].data.features.x, reference.features.x);
    EXPECT_EQ(results[c].data.features.y, reference.features.y);
    EXPECT_EQ(results[c].data.extraction_rate, reference.extraction_rate);

    const std::vector<ClassifierResult> expected = direct(columns[c]);
    ASSERT_EQ(results[c].cells.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      SCOPED_TRACE(columns[c].cells[k].label);
      EXPECT_EQ(results[c].cells[k].classifier, columns[c].cells[k].label);
      // Bit for bit: the accuracy and every confusion count.
      EXPECT_EQ(results[c].cells[k].accuracy, expected[k].accuracy);
      EXPECT_EQ(results[c].cells[k].confusion.counts(),
                expected[k].confusion.counts());
    }
    const auto rows = emoleak::bench::comparisons(columns[c], results[c]);
    ASSERT_EQ(rows.size(), columns[c].cells.size());
    EXPECT_EQ(rows[0].paper, 0.95);
    EXPECT_EQ(rows[2].paper, std::nullopt);
    EXPECT_EQ(rows[1].measured, expected[1].accuracy);
  }
}

TEST(BenchRunnerTest, ParseAcceptsEveryBenchFlag) {
  using emoleak::bench::BenchOptions;
  char prog[] = "bench";
  char quick[] = "--quick";
  char exact[] = "--paper-exact";
  char full[] = "--full";
  char json[] = "--json";
  char path[] = "out.json";
  char* with_full[] = {prog, quick, exact, full};
  const BenchOptions opts =
      BenchOptions::parse(4, with_full, BenchOptions::Extra::kFull);
  EXPECT_TRUE(opts.quick);
  EXPECT_TRUE(opts.paper_exact);
  EXPECT_TRUE(opts.full);
  EXPECT_DOUBLE_EQ(opts.fraction(0.6), 0.15);
  char* with_json[] = {prog, json, path};
  EXPECT_EQ(BenchOptions::parse(3, with_json, BenchOptions::Extra::kJson)
                .json_path,
            "out.json");
}

}  // namespace
