// CART-style decision tree.
//
// Base learner for the RandomForest and RandomSubSpace ensembles
// (paper Table VI) and the structural component of the logistic model
// tree. Supports per-split random feature subsets (for forests) and
// sample weights via duplication-free index lists.
//
// Two induction paths: exact (presorted columns, every distinct value a
// candidate cut) and binned (TreeConfig::exact = false). The textbook
// per-node copy+sort CART that the exact path must match byte for byte
// lives in test_tree as its parity oracle, not here.
#pragma once

#include <cstdint>
#include <optional>

#include "ml/classifier.h"
#include "util/rng.h"

namespace emoleak::ml {

struct TreeConfig {
  int max_depth = 18;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Number of features examined per split; 0 = all (plain CART),
  /// otherwise a random subset of this size (random forest mode).
  std::size_t features_per_split = 0;
  std::uint64_t seed = 11;
  /// Exact split finding (the default): every distinct feature value is
  /// a candidate cut. Each feature column is sorted once per tree and
  /// kept sorted down the tree by stable partitioning; fitted trees are
  /// byte-identical to the serialized models of earlier releases.
  /// `false` selects binned induction (LightGBM-style cuts): feature
  /// values are quantized once per dataset into <= max_bins quantile
  /// bins (u8 codes), and each node scores cuts only at bin boundaries,
  /// counting-sorting its rows by code per candidate feature. Much faster on forests; splits may
  /// differ from the exact tree when a bin spans multiple distinct
  /// values, but training stays fully deterministic — same seed, same
  /// data, same trees at any thread count.
  bool exact = true;
  /// Bin budget per feature for the binned path. Capped at 256 so codes
  /// fit a byte; when a feature has fewer distinct values than this,
  /// every distinct value gets its own bin and binned splits coincide
  /// with exact ones.
  std::size_t max_bins = 256;
};

/// Per-dataset presorted feature index: for each feature, the dataset's
/// row ids sorted by that feature's value. Ensembles build it once per
/// fit and share it (read-only, so safe across threads) with every
/// tree, which then derives its bag's sorted order in linear time via a
/// counting pass instead of re-sorting all columns per tree.
class PresortedColumns {
 public:
  [[nodiscard]] static PresortedColumns build(const Dataset& data);

  [[nodiscard]] std::size_t rows() const noexcept { return n_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dim_; }
  /// Row ids sorted by feature `f` (ties by row id); length rows().
  [[nodiscard]] const std::uint32_t* order(std::size_t f) const noexcept {
    return order_.data() + f * n_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::vector<std::uint32_t> order_;  ///< dims() arrays of rows() ids
};

/// Per-dataset quantile binner for binned induction: every feature
/// value is quantized once into a bin code (u8, <= 256 bins per
/// feature), and trees fit on codes instead of doubles. Like
/// PresortedColumns, ensembles build it once per fit and share it
/// read-only across all trees/threads. Bin edges come from equal-
/// frequency quantiles over the *full* dataset, so every bag of the same
/// dataset sees the same candidate cuts — a bagged binned forest is
/// bit-identical at any thread count. When a feature has <= max_bins
/// distinct values each value gets its own bin, making binned splits
/// coincide with exact ones (the parity tests rely on this).
class BinnedColumns {
 public:
  [[nodiscard]] static BinnedColumns build(const Dataset& data,
                                           std::size_t max_bins = 256);

  [[nodiscard]] std::size_t rows() const noexcept { return n_; }
  [[nodiscard]] std::size_t dims() const noexcept { return dim_; }
  /// Bin codes of feature `f` for every dataset row; length rows().
  [[nodiscard]] const std::uint8_t* codes(std::size_t f) const noexcept {
    return codes_.data() + f * n_;
  }
  /// Smallest / largest dataset value landing in bin `b` of feature
  /// `f`. A cut between (nonempty-in-node) bins bl < br stores the
  /// threshold 0.5 * (upper(f, bl) + lower(f, br)) — the same
  /// midpoint-of-adjacent-present-values rule the exact scan uses, so
  /// with one bin per distinct value the two paths emit identical
  /// thresholds.
  [[nodiscard]] double lower_value(std::size_t f, std::size_t b) const noexcept {
    return lower_[f * 256 + b];
  }
  [[nodiscard]] double upper_value(std::size_t f, std::size_t b) const noexcept {
    return upper_[f * 256 + b];
  }

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::vector<std::uint8_t> codes_;  ///< dims() arrays of rows() codes
  std::vector<double> lower_;        ///< dims() x 256 bin min values
  std::vector<double> upper_;        ///< dims() x 256 bin max values
};

class DecisionTree final : public Classifier {
 public:
  DecisionTree() = default;
  explicit DecisionTree(TreeConfig config) : config_{config} {}

  void fit(const Dataset& data) override;

  /// Fits on a row subset (for bagging) without copying the matrix.
  /// `presorted`, when given, must have been built from `data`; the
  /// exact path then derives each feature's bag order from it in
  /// O(rows + indices) instead of sorting. `binned` likewise must have
  /// been built from `data` and is only consulted when
  /// `config.exact == false` (it is built on demand when the binned
  /// path is selected and no shared binner is supplied). A zero-width
  /// dataset fits one leaf holding the class distribution; an index at
  /// or past data.size(), or 2^32 or more indices or dataset rows,
  /// throws util::DataError.
  void fit_indices(const Dataset& data, std::span<const std::size_t> indices,
                   const PresortedColumns* presorted = nullptr,
                   const BinnedColumns* binned = nullptr);

  [[nodiscard]] int predict(std::span<const double> row) const override;
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> row) const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override;
  [[nodiscard]] std::string name() const override { return "DecisionTree"; }
  void serialize(std::ostream& out) const override;
  void deserialize(std::istream& in) override;

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] int classes() const noexcept { return classes_; }
  [[nodiscard]] int depth() const noexcept;

  /// Index of the leaf a row lands in (tree must be fitted). Exposed so
  /// the logistic model tree can route rows to leaf models.
  [[nodiscard]] std::size_t leaf_index(std::span<const double> row) const;

  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

 private:
  struct Node {
    // Internal nodes:
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;   ///< child indices; -1 marks a leaf
    std::int32_t right = -1;
    // Leaves:
    std::vector<double> distribution;  ///< class probabilities
    std::size_t leaf_id = 0;

    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  /// Per-tree scratch shared by every node of one fit (defined in
  /// tree.cpp); all of it lives in the calling thread's Workspace so
  /// repeated fits are allocation-free in steady state.
  struct BuildScratch;

  std::int32_t build_presort(const Dataset& data, BuildScratch& scratch,
                             std::size_t begin, std::size_t end, int depth,
                             util::Rng& rng);
  std::int32_t build_binned(const Dataset& data, const BinnedColumns& binned,
                            BuildScratch& scratch, std::size_t begin,
                            std::size_t end, int depth, util::Rng& rng);
  std::int32_t make_leaf(std::span<const std::size_t> class_counts,
                         std::size_t count);
  [[nodiscard]] const Node& route(std::span<const double> row) const;

  TreeConfig config_{};
  int classes_ = 0;
  std::vector<Node> nodes_;
  std::size_t leaf_count_ = 0;
};

}  // namespace emoleak::ml
