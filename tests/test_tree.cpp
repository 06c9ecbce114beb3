// Tests for the CART decision tree (ml/tree.h).
#include "ml/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <numeric>
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

TEST(DecisionTreeTest, OutOfRangeIndexThrowsOnEveryPath) {
  // Ensembles draw their bags in range, but fit_indices is public: an
  // index past the last row must be refused, not read.
  const Dataset d = xor_data(8, 7);
  for (const bool exact : {true, false}) {
    TreeConfig config;
    config.exact = exact;
    DecisionTree tree{config};
    EXPECT_THROW(tree.fit_indices(d, std::vector<std::size_t>{0, 1, 2, 8}),
                 emoleak::util::DataError)
        << "exact=" << exact;
  }
}

TEST(DecisionTreeTest, NanFeatureIsRejectedOnEveryPath) {
  // Dataset::validate accepts NaN, but NaN breaks the sort comparators'
  // strict weak ordering and would become a binned threshold. Every
  // induction path must refuse it instead.
  Dataset d = xor_data(60, 12);
  d.x[17][1] = std::numeric_limits<double>::quiet_NaN();
  for (const bool exact : {true, false}) {
    TreeConfig cfg;
    cfg.exact = exact;
    DecisionTree tree{cfg};
    EXPECT_THROW(tree.fit(d), emoleak::util::DataError) << "exact=" << exact;
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

TEST(DecisionTreeTest, ZeroWidthDatasetFitsOneLeaf) {
  // No feature to split on: both paths fit a single leaf holding the
  // class distribution of the fitted rows, bag repeats counted.
  Dataset d;
  d.class_count = 3;
  for (const int label : {0, 2, 1, 2, 2, 0, 2}) {
    d.x.emplace_back();
    d.y.push_back(label);
  }
  const std::vector<std::size_t> bag{0, 0, 1, 3, 5, 6};
  for (const bool exact : {true, false}) {
    TreeConfig cfg;
    cfg.exact = exact;
    DecisionTree tree{cfg};
    tree.fit(d);
    EXPECT_EQ(tree.node_count(), 1u) << "exact=" << exact;
    EXPECT_EQ(tree.leaf_count(), 1u) << "exact=" << exact;
    EXPECT_EQ(tree.predict_proba(std::vector<double>{}),
              (std::vector<double>{2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0}))
        << "exact=" << exact;
    EXPECT_EQ(tree.predict(std::vector<double>{}), 2) << "exact=" << exact;

    tree.fit_indices(d, bag);
    EXPECT_EQ(tree.node_count(), 1u) << "exact=" << exact;
    EXPECT_EQ(tree.predict_proba(std::vector<double>{}),
              (std::vector<double>{3.0 / 6.0, 0.0, 3.0 / 6.0}))
        << "exact=" << exact;
  }
  emoleak::ml::RandomForestConfig forest_cfg;
  forest_cfg.tree_count = 3;
  emoleak::ml::RandomForest forest{forest_cfg};
  forest.fit(d);
  EXPECT_EQ(forest.predict(std::vector<double>{}), 2);
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

// Parity oracle: per-node copy+sort CART, the textbook algorithm the
// presorted exact path replaced. Each node copies its rows' (value,
// label) pairs per candidate feature, sorts them and scans the cuts
// between distinct values. Everything that decides the tree is the
// library's: one Rng shuffle of the iota'd feature ids per split
// attempt, the integer sum-of-squared-counts purity metric with its
// 1e-12 improvement epsilon scaled by the node count, midpoint
// thresholds, and a stable partition of the rows. It writes
// DecisionTree::serialize's exact text, so a parity test compares
// bytes.
class ReferenceCart {
 public:
  ReferenceCart(const Dataset& data, const TreeConfig& cfg)
      : data_{data}, cfg_{cfg}, rng_{cfg.seed} {}

  std::string fit(std::span<const std::size_t> indices) {
    rows_.assign(indices.begin(), indices.end());
    build(0, rows_.size(), 0);
    std::ostringstream out;
    out << std::setprecision(17);
    out << data_.class_count << ' ' << nodes_.size() << ' ' << leaves_ << '\n';
    for (const Node& n : nodes_) {
      out << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
          << n.right << ' ' << n.leaf_id << ' ' << n.distribution.size();
      for (const double v : n.distribution) out << ' ' << v;
      out << '\n';
    }
    return out.str();
  }

 private:
  struct Node {
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::size_t leaf_id = 0;
    std::vector<double> distribution;
  };

  static std::uint64_t squared_sum(const std::vector<std::size_t>& counts) {
    std::uint64_t s = 0;
    for (const std::size_t c : counts) s += std::uint64_t{c} * c;
    return s;
  }

  std::int32_t leaf(const std::vector<std::size_t>& counts, std::size_t count) {
    Node node;
    for (const std::size_t c : counts) {
      node.distribution.push_back(static_cast<double>(c) /
                                  static_cast<double>(count));
    }
    node.leaf_id = leaves_++;
    nodes_.push_back(std::move(node));
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  std::int32_t build(std::size_t begin, std::size_t end, int depth) {
    const std::size_t count = end - begin;
    std::vector<std::size_t> counts(static_cast<std::size_t>(data_.class_count));
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[static_cast<std::size_t>(data_.y[rows_[i]])];
    }
    const std::uint64_t node_sq = squared_sum(counts);
    if (depth >= cfg_.max_depth || count < cfg_.min_samples_split ||
        node_sq == std::uint64_t{count} * count) {
      return leaf(counts, count);
    }

    const std::size_t dim = data_.dim();
    std::vector<std::size_t> features(dim);
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t feature_count = dim;
    if (cfg_.features_per_split > 0 && cfg_.features_per_split < dim) {
      rng_.shuffle(features);
      feature_count = cfg_.features_per_split;
    }

    const double eps = 1e-12 * static_cast<double>(count);
    double best_metric =
        static_cast<double>(node_sq) / static_cast<double>(count);
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    bool found = false;
    for (std::size_t fi = 0; fi < feature_count; ++fi) {
      const std::size_t f = features[fi];
      std::vector<std::pair<double, int>> column;
      for (std::size_t i = begin; i < end; ++i) {
        column.emplace_back(data_.x[rows_[i]][f], data_.y[rows_[i]]);
      }
      std::sort(column.begin(), column.end());
      std::vector<std::size_t> left(counts.size(), 0);
      for (std::size_t i = 0; i + 1 < count; ++i) {
        ++left[static_cast<std::size_t>(column[i].second)];
        if (column[i].first == column[i + 1].first) continue;
        const std::size_t n_left = i + 1;
        const std::size_t n_right = count - n_left;
        if (n_left < cfg_.min_samples_leaf || n_right < cfg_.min_samples_leaf) {
          continue;
        }
        std::vector<std::size_t> right(counts.size());
        for (std::size_t c = 0; c < counts.size(); ++c) {
          right[c] = counts[c] - left[c];
        }
        const double metric =
            static_cast<double>(squared_sum(left)) / static_cast<double>(n_left) +
            static_cast<double>(squared_sum(right)) / static_cast<double>(n_right);
        if (metric > best_metric + eps) {
          best_metric = metric;
          best_feature = f;
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
          found = true;
        }
      }
    }
    if (!found) return leaf(counts, count);

    const auto mid = static_cast<std::size_t>(
        std::stable_partition(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                              rows_.begin() + static_cast<std::ptrdiff_t>(end),
                              [&](std::size_t row) {
                                return data_.x[row][best_feature] <= best_threshold;
                              }) -
        rows_.begin());
    if (mid == begin || mid == end) return leaf(counts, count);

    // The node's slot precedes its children, as in the library.
    nodes_.emplace_back();
    const std::size_t self = nodes_.size() - 1;
    const std::int32_t left_child = build(begin, mid, depth + 1);
    const std::int32_t right_child = build(mid, end, depth + 1);
    nodes_[self].feature = best_feature;
    nodes_[self].threshold = best_threshold;
    nodes_[self].left = left_child;
    nodes_[self].right = right_child;
    return static_cast<std::int32_t>(self);
  }

  const Dataset& data_;
  TreeConfig cfg_;
  Rng rng_;
  std::vector<std::size_t> rows_;
  std::vector<Node> nodes_;
  std::size_t leaves_ = 0;
};

std::string reference_tree(const Dataset& d, std::span<const std::size_t> indices,
                           const TreeConfig& cfg) {
  return ReferenceCart{d, cfg}.fit(indices);
}

std::string reference_tree(const Dataset& d, const TreeConfig& cfg) {
  std::vector<std::size_t> all(d.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return reference_tree(d, all, cfg);
}

std::vector<std::size_t> bootstrap_bag(std::size_t rows, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::size_t> bag(rows);
  for (std::size_t& b : bag) b = rng.uniform_int(rows);
  return bag;
}

// Presort-vs-oracle parity: identical serialized bytes across
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
    DecisionTree fast{cfg};
    fast.fit(d);
    EXPECT_EQ(serialized(fast), reference_tree(d, cfg));
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
  const std::vector<std::size_t> bag = bootstrap_bag(d.size(), 25);
  TreeConfig cfg;
  cfg.features_per_split = 2;
  cfg.seed = 55;
  DecisionTree fast{cfg};
  fast.fit_indices(d, bag);
  EXPECT_EQ(serialized(fast), reference_tree(d, bag, cfg));
}

TEST(DecisionTreeTest, SharedPresortOnBootstrapBagsMatchesReference) {
  // RandomForest::fit hands every tree one PresortedColumns for the
  // whole dataset, and each tree derives its bag's order from it by a
  // counting pass. Those trees must still be the oracle's, bag repeats
  // and value ties included.
  const std::vector<Dataset> datasets = {
      xor_data(300, 27), quantized_data(400, 3, 28), quantized_data(150, 5, 29)};
  for (std::size_t k = 0; k < datasets.size(); ++k) {
    const Dataset& d = datasets[k];
    const emoleak::ml::PresortedColumns shared =
        emoleak::ml::PresortedColumns::build(d);
    for (const std::size_t features_per_split : {std::size_t{0}, std::size_t{2}}) {
      for (const std::uint64_t seed : {61u, 62u, 63u}) {
        const std::vector<std::size_t> bag = bootstrap_bag(d.size(), seed + k);
        TreeConfig cfg;
        cfg.features_per_split = features_per_split;
        cfg.seed = seed;
        DecisionTree tree{cfg};
        tree.fit_indices(d, bag, &shared);
        EXPECT_EQ(serialized(tree), reference_tree(d, bag, cfg))
            << "dataset " << k << " features_per_split=" << features_per_split
            << " seed=" << seed;
      }
    }
  }
}

TEST(DecisionTreeTest, RefitIsAllocationFreeInSteadyState) {
  // Both induction paths draw every per-fit/per-node buffer from the
  // thread workspace: after a warm-up fit, repeated fits never touch
  // the heap through the arena (same contract test_workspace asserts
  // for the DSP kernels).
  const Dataset d = quantized_data(300, 3, 26);
  for (const bool exact : {true, false}) {
    TreeConfig cfg;
    cfg.exact = exact;
    DecisionTree tree{cfg};
    tree.fit(d);  // warm-up sizes the arena
    const std::size_t warm = emoleak::util::thread_workspace().grow_count();
    for (int iter = 0; iter < 5; ++iter) tree.fit(d);
    EXPECT_EQ(emoleak::util::thread_workspace().grow_count(), warm)
        << "exact=" << exact;
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
