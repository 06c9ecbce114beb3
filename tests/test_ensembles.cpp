// Tests for RandomForest / RandomSubspace (ml/ensemble.h) and the
// logistic model tree (ml/lmt.h).
#include "ml/ensemble.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ml/lmt.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::ml::Dataset;
using emoleak::ml::DecisionTree;
using emoleak::ml::LogisticModelTree;
using emoleak::ml::RandomForest;
using emoleak::ml::RandomForestConfig;
using emoleak::ml::RandomSubspace;
using emoleak::ml::RandomSubspaceConfig;
using emoleak::ml::TreeConfig;
using emoleak::util::Rng;

/// Noisy blobs with useless distractor features — the regime where
/// ensembles beat a single tree.
Dataset noisy_blobs(std::size_t per_class, int classes, std::uint64_t seed) {
  Rng rng{seed};
  Dataset d;
  d.class_count = classes;
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      std::vector<double> row;
      row.push_back(static_cast<double>(c) + 0.8 * rng.normal());
      row.push_back(-static_cast<double>(c) + 0.8 * rng.normal());
      for (int j = 0; j < 6; ++j) row.push_back(rng.normal());  // distractors
      d.x.push_back(std::move(row));
      d.y.push_back(c);
    }
  }
  return d;
}

double accuracy_on(const emoleak::ml::Classifier& c, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (c.predict(d.x[i]) == d.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

TEST(RandomForestTest, LearnsNoisyBlobs) {
  const Dataset train = noisy_blobs(80, 3, 1);
  const Dataset test = noisy_blobs(40, 3, 2);
  RandomForest forest;
  forest.fit(train);
  EXPECT_GT(accuracy_on(forest, test), 0.65);
}

TEST(RandomForestTest, GeneralizesBetterThanSingleTree) {
  const Dataset train = noisy_blobs(60, 3, 3);
  const Dataset test = noisy_blobs(60, 3, 4);
  DecisionTree tree;
  tree.fit(train);
  RandomForest forest;
  forest.fit(train);
  EXPECT_GE(accuracy_on(forest, test), accuracy_on(tree, test) - 0.02);
}

TEST(RandomForestTest, TreeCountMatchesConfig) {
  RandomForestConfig cfg;
  cfg.tree_count = 7;
  RandomForest forest{cfg};
  forest.fit(noisy_blobs(20, 2, 5));
  EXPECT_EQ(forest.tree_count(), 7u);
}

TEST(RandomForestTest, ProbabilitiesNormalized) {
  RandomForest forest;
  const Dataset d = noisy_blobs(30, 4, 6);
  forest.fit(d);
  const auto p = forest.predict_proba(d.x[0]);
  ASSERT_EQ(p.size(), 4u);
  double sum = 0.0;
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset d = noisy_blobs(30, 3, 7);
  RandomForest a, b;
  a.fit(d);
  b.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(a.predict(d.x[i]), b.predict(d.x[i]));
  }
}

TEST(RandomForestTest, ZeroTreesThrows) {
  RandomForestConfig cfg;
  cfg.tree_count = 0;
  RandomForest forest{cfg};
  EXPECT_THROW(forest.fit(noisy_blobs(10, 2, 8)), emoleak::util::ConfigError);
}

TEST(RandomForestTest, UnfittedThrows) {
  const RandomForest forest;
  EXPECT_THROW((void)forest.predict(std::vector<double>(8, 0.0)),
               emoleak::util::DataError);
}

TEST(RandomForestTest, NameMatchesWeka) {
  EXPECT_EQ(RandomForest{}.name(), "RandomForest");
}

TEST(RandomSubspaceTest, LearnsNoisyBlobs) {
  const Dataset train = noisy_blobs(80, 3, 9);
  const Dataset test = noisy_blobs(40, 3, 10);
  RandomSubspace model;
  model.fit(train);
  EXPECT_GT(accuracy_on(model, test), 0.65);
}

TEST(RandomSubspaceTest, HalfSubspaceUsesHalfTheFeatures) {
  RandomSubspaceConfig cfg;
  cfg.subspace_fraction = 0.5;
  cfg.ensemble_size = 3;
  RandomSubspace model{cfg};
  const Dataset d = noisy_blobs(30, 2, 11);
  model.fit(d);
  // Predict must work with the full-width row (projection internal).
  EXPECT_NO_THROW((void)model.predict(d.x[0]));
}

TEST(RandomSubspaceTest, InvalidConfigThrows) {
  RandomSubspaceConfig cfg;
  cfg.ensemble_size = 0;
  EXPECT_THROW(RandomSubspace{cfg}.fit(noisy_blobs(10, 2, 12)),
               emoleak::util::ConfigError);
  cfg = RandomSubspaceConfig{};
  cfg.subspace_fraction = 0.0;
  EXPECT_THROW(RandomSubspace{cfg}.fit(noisy_blobs(10, 2, 12)),
               emoleak::util::ConfigError);
}

TEST(RandomSubspaceTest, NameMatchesWeka) {
  EXPECT_EQ(RandomSubspace{}.name(), "RandomSubSpace");
}

TEST(RandomSubspaceTest, ProbabilitiesNormalized) {
  RandomSubspace model;
  const Dataset d = noisy_blobs(30, 3, 13);
  model.fit(d);
  const auto p = model.predict_proba(d.x[2]);
  double sum = 0.0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LmtTest, LearnsBlobsViaLeafLogistics) {
  const Dataset train = noisy_blobs(80, 3, 14);
  const Dataset test = noisy_blobs(40, 3, 15);
  LogisticModelTree lmt;
  lmt.fit(train);
  EXPECT_GT(accuracy_on(lmt, test), 0.65);
}

TEST(LmtTest, NameMatchesPaperTables) {
  EXPECT_EQ(LogisticModelTree{}.name(), "trees.lmt");
}

TEST(LmtTest, FitsLeafModels) {
  LogisticModelTree lmt;
  lmt.fit(noisy_blobs(100, 2, 16));
  EXPECT_GE(lmt.leaf_model_count(), 1u);
}

TEST(LmtTest, UnfittedThrows) {
  const LogisticModelTree lmt;
  EXPECT_THROW((void)lmt.predict_proba(std::vector<double>(8, 0.0)),
               emoleak::util::DataError);
}

TEST(LmtTest, CloneIsFresh) {
  const LogisticModelTree lmt;
  const auto clone = lmt.clone();
  EXPECT_EQ(clone->name(), "trees.lmt");
}

// Property: ensemble test accuracy improves (weakly) with size.
class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, MoreTreesAtLeastAsGoodAsOne) {
  const Dataset train = noisy_blobs(50, 3, 17);
  const Dataset test = noisy_blobs(50, 3, 18);
  RandomForestConfig one;
  one.tree_count = 1;
  RandomForestConfig many;
  many.tree_count = GetParam();
  RandomForest a{one}, b{many};
  a.fit(train);
  b.fit(train);
  EXPECT_GE(accuracy_on(b, test), accuracy_on(a, test) - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeSweep,
                         ::testing::Values(5, 15, 40, 80));

std::string serialized(const emoleak::ml::Classifier& model) {
  std::ostringstream out;
  model.serialize(out);
  return out.str();
}

/// Features quantized to a handful of distinct values, so every bin
/// budget >= ~40 is in the one-value-per-bin regime where binned and
/// exact induction must coincide.
Dataset quantized_blobs(std::size_t per_class, int classes,
                        std::uint64_t seed) {
  Dataset d = noisy_blobs(per_class, classes, seed);
  for (auto& row : d.x) {
    for (double& v : row) v = std::round(v * 4.0) / 4.0;
  }
  return d;
}

TEST(RandomForestTest, BinnedLearnsNoisyBlobs) {
  // Continuous features: real quantization (bins span many values),
  // exercising binned induction end to end through bagging.
  const Dataset train = noisy_blobs(80, 3, 27);
  const Dataset test = noisy_blobs(40, 3, 28);
  RandomForestConfig cfg;
  cfg.tree.exact = false;
  RandomForest forest{cfg};
  forest.fit(train);
  EXPECT_GT(accuracy_on(forest, test), 0.65);
}

TEST(RandomForestTest, BinnedBitIdenticalAtAnyThreadCount) {
  // The binner is built once from the full dataset and the bagging /
  // feature-subspace RNG plans are drawn serially up front, so a
  // binned forest must be byte-identical no matter how the tree fits
  // are scheduled.
  const Dataset d = noisy_blobs(50, 3, 29);
  RandomForestConfig cfg;
  cfg.tree_count = 12;
  cfg.tree.exact = false;
  cfg.tree.max_bins = 32;
  cfg.parallelism.threads = 1;
  RandomForest serial{cfg};
  cfg.parallelism.threads = 4;
  RandomForest threaded{cfg};
  serial.fit(d);
  threaded.fit(d);
  EXPECT_EQ(serialized(serial), serialized(threaded));
}

TEST(RandomForestTest, BinnedSerializesByteIdenticallyToExactOnTiedData) {
  // One value per bin => identical candidate cuts => the exact-path
  // parity guarantee lifts through the whole forest, threads and all.
  const Dataset d = quantized_blobs(40, 3, 30);
  RandomForestConfig cfg;
  cfg.tree_count = 12;
  cfg.tree.features_per_split = 2;
  cfg.parallelism.threads = 2;
  cfg.tree.exact = false;
  RandomForest binned{cfg};
  cfg.tree.exact = true;
  cfg.parallelism.threads = 1;
  RandomForest exact{cfg};
  binned.fit(d);
  exact.fit(d);
  EXPECT_EQ(serialized(binned), serialized(exact));
}

TEST(RandomSubspaceTest, BinnedBitIdenticalAtAnyThreadCount) {
  const Dataset d = noisy_blobs(40, 3, 31);
  RandomSubspaceConfig cfg;
  cfg.ensemble_size = 8;
  cfg.subspace_fraction = 0.5;
  cfg.tree.exact = false;
  cfg.tree.max_bins = 32;
  cfg.parallelism.threads = 1;
  RandomSubspace serial{cfg};
  cfg.parallelism.threads = 4;
  RandomSubspace threaded{cfg};
  serial.fit(d);
  threaded.fit(d);
  EXPECT_EQ(serialized(serial), serialized(threaded));
}

// FNV-1a-64 over a serialized model: a compact fingerprint of every
// split, threshold and leaf distribution.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Golden digests pin fitted forests across commits, not only within
// one process: a change to tree induction that moves any serialized
// byte fails here. Both datasets hold 4,500 rows, so nodes reach
// thousands of rows. The continuous set exercises real
// quantization on the binned path; on the quantized set every value
// gets its own bin and the binned and exact forests coincide. The
// constants hold for this toolchain and libm: the data comes from
// Rng::normal, which calls log and sqrt, and thresholds print at 17
// significant digits. A change that means to move bits re-pins them
// and says so.
struct GoldenForest {
  bool quantized;
  bool exact;
  std::uint64_t digest;
};

TEST(RandomForestTest, GoldenDigestsPinFittedForests) {
  const Dataset continuous = noisy_blobs(1500, 3, 61);
  const Dataset quantized = quantized_blobs(1500, 3, 62);
  for (const GoldenForest g : {
           GoldenForest{false, false, 0xec23f84ae7f4c155ULL},
           GoldenForest{false, true, 0x1fa933dd189466f9ULL},
           GoldenForest{true, false, 0x81d891b6cd1df320ULL},
           GoldenForest{true, true, 0x81d891b6cd1df320ULL},
       }) {
    for (const std::size_t threads : {1u, 4u}) {
      RandomForestConfig cfg;
      cfg.tree_count = 6;
      cfg.tree.exact = g.exact;
      cfg.parallelism.threads = threads;
      RandomForest forest{cfg};
      forest.fit(g.quantized ? quantized : continuous);
      EXPECT_EQ(fnv1a64(serialized(forest)), g.digest)
          << "quantized=" << g.quantized << " exact=" << g.exact
          << " threads=" << threads << " digest=0x" << std::hex
          << fnv1a64(serialized(forest));
    }
  }
}

}  // namespace
