// Tests for the CART decision tree (ml/tree.h).
#include "ml/tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "ml/ensemble.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/workspace.h"

namespace {

using emoleak::ml::Dataset;
using emoleak::ml::DecisionTree;
using emoleak::ml::TreeConfig;
using emoleak::util::Rng;

std::string serialized(const DecisionTree& tree) {
  std::ostringstream out;
  tree.serialize(out);
  return out.str();
}

Dataset xor_data(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  Dataset d;
  d.class_count = 2;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    d.x.push_back({a, b});
    d.y.push_back((a > 0.0) != (b > 0.0) ? 1 : 0);
  }
  return d;
}

double train_accuracy(const DecisionTree& t, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (t.predict(d.x[i]) == d.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.size());
}

TEST(DecisionTreeTest, LearnsXorPerfectly) {
  const Dataset d = xor_data(400, 1);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(train_accuracy(tree, d), 0.99);
}

TEST(DecisionTreeTest, LinearBoundaryLearnable) {
  Rng rng{2};
  Dataset d;
  d.class_count = 2;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    d.x.push_back({a, rng.normal()});
    d.y.push_back(a > 0.25 ? 1 : 0);
  }
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(train_accuracy(tree, d), 0.99);
}

TEST(DecisionTreeTest, DepthLimitRespected) {
  const Dataset d = xor_data(400, 3);
  TreeConfig cfg;
  cfg.max_depth = 1;  // a stump cannot solve XOR
  DecisionTree stump{cfg};
  stump.fit(d);
  EXPECT_LE(stump.depth(), 2);
  EXPECT_LT(train_accuracy(stump, d), 0.75);
}

TEST(DecisionTreeTest, PureDatasetIsSingleLeaf) {
  Dataset d;
  d.class_count = 2;
  for (int i = 0; i < 20; ++i) {
    d.x.push_back({static_cast<double>(i), 0.0});
    d.y.push_back(1);
  }
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{5.0, 0.0}), 1);
}

TEST(DecisionTreeTest, ProbabilitiesAreLeafDistributions) {
  const Dataset d = xor_data(200, 4);
  DecisionTree tree;
  tree.fit(d);
  const auto p = tree.predict_proba(d.x[0]);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(DecisionTreeTest, MinLeafRespected) {
  const Dataset d = xor_data(100, 5);
  TreeConfig cfg;
  cfg.min_samples_leaf = 40;
  DecisionTree tree{cfg};
  tree.fit(d);
  // With min leaf 40 of 100 samples, at most one split is possible.
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTreeTest, LeafIndexRoutesConsistently) {
  const Dataset d = xor_data(200, 6);
  DecisionTree tree;
  tree.fit(d);
  std::set<std::size_t> leaves;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::size_t leaf = tree.leaf_index(d.x[i]);
    EXPECT_LT(leaf, tree.leaf_count());
    leaves.insert(leaf);
  }
  EXPECT_GE(leaves.size(), 2u);
}

TEST(DecisionTreeTest, UnfittedThrows) {
  const DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}),
               emoleak::util::DataError);
}

TEST(DecisionTreeTest, EmptyIndicesThrow) {
  const Dataset d = xor_data(10, 7);
  DecisionTree tree;
  EXPECT_THROW(tree.fit_indices(d, std::vector<std::size_t>{}),
               emoleak::util::DataError);
}

TEST(DecisionTreeTest, NanFeatureIsRejectedOnEveryPath) {
  // Dataset::validate accepts NaN, but NaN breaks the sort comparators'
  // strict weak ordering and would become a binned threshold. Every
  // induction path must refuse it instead.
  Dataset d = xor_data(60, 12);
  d.x[17][1] = std::numeric_limits<double>::quiet_NaN();
  struct PathCase {
    bool exact;
    bool presort;
  };
  for (const PathCase path : {PathCase{true, true}, PathCase{true, false},
                              PathCase{false, true}}) {
    TreeConfig cfg;
    cfg.exact = path.exact;
    cfg.presort = path.presort;
    DecisionTree tree{cfg};
    EXPECT_THROW(tree.fit(d), emoleak::util::DataError)
        << "exact=" << path.exact << " presort=" << path.presort;
  }
  EXPECT_THROW((void)emoleak::ml::PresortedColumns::build(d),
               emoleak::util::DataError);
  EXPECT_THROW((void)emoleak::ml::BinnedColumns::build(d),
               emoleak::util::DataError);
  for (const bool exact : {true, false}) {
    emoleak::ml::RandomForestConfig cfg;
    cfg.tree_count = 3;
    cfg.tree.exact = exact;
    emoleak::ml::RandomForest forest{cfg};
    EXPECT_THROW(forest.fit(d), emoleak::util::DataError) << "exact=" << exact;
  }
}

TEST(DecisionTreeTest, FitIndicesUsesOnlySubset) {
  // Train only on class-0 rows: every prediction must be class 0.
  Dataset d;
  d.class_count = 2;
  for (int i = 0; i < 40; ++i) {
    d.x.push_back({static_cast<double>(i)});
    d.y.push_back(i % 2);
  }
  std::vector<std::size_t> evens;
  for (std::size_t i = 0; i < d.size(); i += 2) evens.push_back(i);
  DecisionTree tree;
  tree.fit_indices(d, evens);
  for (const auto& row : d.x) EXPECT_EQ(tree.predict(row), 0);
}

TEST(DecisionTreeTest, RandomFeatureSubsetStillLearns) {
  const Dataset d = xor_data(400, 8);
  TreeConfig cfg;
  cfg.features_per_split = 1;
  DecisionTree tree{cfg};
  tree.fit(d);
  EXPECT_GT(train_accuracy(tree, d), 0.9);
}

TEST(DecisionTreeTest, DeterministicGivenConfigSeed) {
  const Dataset d = xor_data(200, 9);
  TreeConfig cfg;
  cfg.features_per_split = 1;
  cfg.seed = 77;
  DecisionTree a{cfg}, b{cfg};
  a.fit(d);
  b.fit(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(a.predict(d.x[i]), b.predict(d.x[i]));
  }
}

TEST(DecisionTreeTest, CloneIsFresh) {
  const DecisionTree tree;
  const auto clone = tree.clone();
  EXPECT_EQ(clone->name(), "DecisionTree");
  EXPECT_THROW((void)clone->predict(std::vector<double>{0.0}),
               emoleak::util::DataError);
}

// Property: deeper trees never have lower training accuracy on the
// same data (monotone in capacity).
class DepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DepthSweep, AccuracyMonotoneInDepth) {
  const Dataset d = xor_data(300, 10);
  TreeConfig shallow;
  shallow.max_depth = GetParam();
  TreeConfig deeper;
  deeper.max_depth = GetParam() + 2;
  DecisionTree a{shallow}, b{deeper};
  a.fit(d);
  b.fit(d);
  EXPECT_GE(train_accuracy(b, d) + 1e-9, train_accuracy(a, d));
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, ::testing::Values(1, 2, 3, 5, 8));

// Multiclass dataset with quantized (heavily tied) values — the
// adversarial case for presorted induction, where intra-tie ordering
// could diverge from the reference's (value, label) sort if splits
// depended on it.
Dataset quantized_data(std::size_t n, int classes, std::uint64_t seed) {
  Rng rng{seed};
  Dataset d;
  d.class_count = classes;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::round(rng.uniform(-2.0, 2.0) * 4.0) / 4.0;
    const double b = std::round(rng.uniform(-2.0, 2.0) * 2.0) / 2.0;
    const double c = std::round(rng.normal() * 2.0) / 2.0;
    d.x.push_back({a, b, c});
    const int label =
        static_cast<int>(std::abs(a + 0.7 * b - 0.4 * c) * 1.7) % classes;
    d.y.push_back(label);
  }
  return d;
}

// Presort-vs-reference parity: identical serialized bytes across
// depth / min-leaf / feature-subset sweeps on tied and untied data.
struct ParityCase {
  int max_depth;
  std::size_t min_samples_leaf;
  std::size_t features_per_split;
};

class PresortParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(PresortParity, SerializesByteIdenticallyToReference) {
  const ParityCase p = GetParam();
  const std::vector<Dataset> datasets = {
      xor_data(300, 21), quantized_data(400, 3, 22), quantized_data(150, 5, 23)};
  for (const Dataset& d : datasets) {
    TreeConfig cfg;
    cfg.max_depth = p.max_depth;
    cfg.min_samples_leaf = p.min_samples_leaf;
    cfg.features_per_split = p.features_per_split;
    cfg.seed = 101;
    cfg.presort = true;
    DecisionTree fast{cfg};
    cfg.presort = false;
    DecisionTree reference{cfg};
    fast.fit(d);
    reference.fit(d);
    EXPECT_EQ(serialized(fast), serialized(reference));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PresortParity,
    ::testing::Values(ParityCase{18, 2, 0}, ParityCase{4, 2, 0},
                      ParityCase{18, 1, 0}, ParityCase{18, 25, 0},
                      ParityCase{18, 2, 1}, ParityCase{18, 2, 2},
                      ParityCase{7, 3, 2}));

TEST(DecisionTreeTest, PresortParityOnBootstrapBags) {
  // Bagged index sets with repeated rows, like RandomForest::fit draws.
  const Dataset d = quantized_data(250, 4, 24);
  Rng rng{25};
  std::vector<std::size_t> bag(d.size());
  for (std::size_t& b : bag) b = rng.uniform_int(d.size());
  TreeConfig cfg;
  cfg.features_per_split = 2;
  cfg.seed = 55;
  cfg.presort = true;
  DecisionTree fast{cfg};
  cfg.presort = false;
  DecisionTree reference{cfg};
  fast.fit_indices(d, bag);
  reference.fit_indices(d, bag);
  EXPECT_EQ(serialized(fast), serialized(reference));
}

TEST(DecisionTreeTest, RefitIsAllocationFreeInSteadyState) {
  // All three induction paths draw every per-fit/per-node buffer from
  // the thread workspace: after a warm-up fit, repeated fits never
  // touch the heap through the arena (same contract test_workspace
  // asserts for the DSP kernels).
  const Dataset d = quantized_data(300, 3, 26);
  struct PathCase {
    bool exact;
    bool presort;
  };
  for (const PathCase path : {PathCase{true, true}, PathCase{true, false},
                              PathCase{false, true}}) {
    TreeConfig cfg;
    cfg.exact = path.exact;
    cfg.presort = path.presort;
    DecisionTree tree{cfg};
    tree.fit(d);  // warm-up sizes the arena
    const std::size_t warm = emoleak::util::thread_workspace().grow_count();
    for (int iter = 0; iter < 5; ++iter) tree.fit(d);
    EXPECT_EQ(emoleak::util::thread_workspace().grow_count(), warm)
        << "exact=" << path.exact << " presort=" << path.presort;
  }
}

// Binned-vs-exact parity: when no feature has more distinct values
// than the bin budget, every distinct value gets its own bin, bin
// boundaries are exactly the exact path's candidate cuts, and the two
// paths must serialize byte-identically — across depth, bin budget and
// bag fraction. quantized_data keeps each feature under 40 distinct
// values, so every budget in the sweep is in the one-value-per-bin
// regime.
struct BinnedParityCase {
  int max_depth;
  std::size_t max_bins;
  double bag_fraction;  ///< 0 = fit() on the full dataset, no bag
};

class BinnedParity : public ::testing::TestWithParam<BinnedParityCase> {};

TEST_P(BinnedParity, MatchesExactWhenBinsDontSplitTies) {
  const BinnedParityCase p = GetParam();
  // The 5,000-row input covers nodes of thousands of rows, where the
  // Gini sums and the split screen's products are largest.
  const std::vector<Dataset> datasets = {quantized_data(400, 3, 31),
                                         quantized_data(150, 5, 32),
                                         quantized_data(5000, 4, 34)};
  const Dataset held_out = quantized_data(120, 3, 33);
  for (const Dataset& d : datasets) {
    TreeConfig cfg;
    cfg.max_depth = p.max_depth;
    cfg.features_per_split = 2;
    cfg.seed = 77;
    cfg.max_bins = p.max_bins;
    cfg.exact = true;
    DecisionTree exact{cfg};
    cfg.exact = false;
    DecisionTree binned{cfg};
    if (p.bag_fraction == 0.0) {
      exact.fit(d);
      binned.fit(d);
    } else {
      Rng rng{91};
      const auto bag_size = static_cast<std::size_t>(
          p.bag_fraction * static_cast<double>(d.size()));
      std::vector<std::size_t> bag(bag_size);
      for (std::size_t& b : bag) b = rng.uniform_int(d.size());
      exact.fit_indices(d, bag);
      binned.fit_indices(d, bag);
    }
    EXPECT_EQ(serialized(binned), serialized(exact))
        << "depth=" << p.max_depth << " bins=" << p.max_bins
        << " bag=" << p.bag_fraction;
    // Byte parity implies this, but assert the user-visible contract
    // directly: identical predictions on held-out rows.
    for (const auto& row : held_out.x) {
      ASSERT_EQ(binned.predict(row), exact.predict(row));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinnedParity,
    ::testing::Values(BinnedParityCase{4, 256, 0.0},
                      BinnedParityCase{18, 256, 0.0},
                      BinnedParityCase{18, 64, 0.6},
                      BinnedParityCase{4, 64, 1.0},
                      BinnedParityCase{18, 48, 1.0},
                      BinnedParityCase{6, 256, 0.6}));

TEST(DecisionTreeTest, BinnedDivergenceOnContinuousDataIsBounded) {
  // On continuous features with a small bin budget, one bin spans many
  // distinct values and the binned tree is *allowed* to pick different
  // cuts than the exact tree — that is the documented accuracy/speed
  // trade. What must still hold: training stays deterministic, and the
  // quantile binning loses little accuracy (paper-style workloads are
  // far from the pathological case).
  const Dataset train = xor_data(400, 41);
  const Dataset test = xor_data(200, 42);
  TreeConfig cfg;
  cfg.seed = 13;
  cfg.exact = false;
  cfg.max_bins = 16;  // 400 distinct values per feature -> ~25 per bin
  DecisionTree binned{cfg};
  binned.fit(train);
  DecisionTree again{cfg};
  again.fit(train);
  EXPECT_EQ(serialized(binned), serialized(again)) << "must stay deterministic";

  cfg.exact = true;
  DecisionTree exact{cfg};
  exact.fit(train);
  const double exact_acc = train_accuracy(exact, test);
  const double binned_acc = train_accuracy(binned, test);
  EXPECT_GT(binned_acc, exact_acc - 0.05)
      << "16-bin quantization may move cuts but must not collapse accuracy";
}

TEST(DecisionTreeTest, SharedBinnerIsSafeAcrossConcurrentFits) {
  // Ensembles build one BinnedColumns per dataset and share it
  // read-only across worker threads. Concurrent fits through the
  // shared binner must produce exactly the trees sequential fits do
  // (run under TSan in the sanitizer recipe).
  const Dataset d = quantized_data(300, 4, 51);
  const emoleak::ml::BinnedColumns bins =
      emoleak::ml::BinnedColumns::build(d, 256);
  std::vector<std::size_t> all(d.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  constexpr std::size_t kFits = 4;
  std::vector<std::string> sequential(kFits);
  std::vector<std::string> concurrent(kFits);
  for (std::size_t t = 0; t < kFits; ++t) {
    TreeConfig cfg;
    cfg.exact = false;
    cfg.features_per_split = 2;
    cfg.seed = 1000 + t;
    DecisionTree tree{cfg};
    tree.fit_indices(d, all, nullptr, &bins);
    sequential[t] = serialized(tree);
  }
  std::vector<std::thread> threads;
  threads.reserve(kFits);
  for (std::size_t t = 0; t < kFits; ++t) {
    threads.emplace_back([&, t] {
      TreeConfig cfg;
      cfg.exact = false;
      cfg.features_per_split = 2;
      cfg.seed = 1000 + t;
      DecisionTree tree{cfg};
      tree.fit_indices(d, all, nullptr, &bins);
      concurrent[t] = serialized(tree);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(concurrent, sequential);
}

}  // namespace
