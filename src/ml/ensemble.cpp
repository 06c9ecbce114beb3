#include "ml/ensemble.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <optional>
#include <ostream>

#include "ml/serialize.h"
#include "obs/obs.h"
#include "util/error.h"

namespace emoleak::ml {

void RandomForest::fit(const Dataset& data) {
  data.validate();
  if (config_.tree_count == 0) {
    throw util::ConfigError{"RandomForest: tree_count must be > 0"};
  }
  classes_ = data.class_count;
  trees_.clear();
  util::Rng rng{config_.seed};

  const auto bag_size = static_cast<std::size_t>(
      std::max(1.0, config_.bootstrap_fraction * static_cast<double>(data.size())));

  // All RNG draws happen serially here, in the same order the serial
  // loop made them, so the trained forest is bit-identical at any
  // thread count; the expensive tree fits then fan out below.
  struct TreePlan {
    TreeConfig cfg;
    std::vector<std::size_t> bag;
  };
  std::vector<TreePlan> plans(config_.tree_count);
  for (std::size_t t = 0; t < config_.tree_count; ++t) {
    TreeConfig cfg = config_.tree;
    if (cfg.features_per_split == 0) {
      cfg.features_per_split = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::round(std::sqrt(
                 static_cast<double>(data.dim())))));
    }
    cfg.seed = rng.next();
    std::vector<std::size_t> bag(bag_size);
    for (std::size_t i = 0; i < bag_size; ++i) {
      bag[i] = rng.uniform_int(data.size());
    }
    plans[t] = TreePlan{cfg, std::move(bag)};
  }

  // Per-dataset shared induction index, built once for the whole
  // forest and read-only afterwards so sharing it across the worker
  // threads is safe: sorted columns for the exact path, the
  // quantile binner for the binned path. Binning uses the *full*
  // dataset (not a bag), so every tree sees the same candidate cuts and
  // the forest stays bit-identical at any thread count.
  std::optional<PresortedColumns> shared;
  std::optional<BinnedColumns> shared_bins;
  if (config_.tree.exact) {
    shared.emplace(PresortedColumns::build(data));
  } else {
    shared_bins.emplace(BinnedColumns::build(data, config_.tree.max_bins));
  }

  std::vector<DecisionTree> trees(config_.tree_count);
  util::parallel_for(config_.parallelism, plans.size(), [&](std::size_t t) {
    OBS_SPAN_ARG("ml.tree_fit", "tree", t);
    DecisionTree tree{plans[t].cfg};
    tree.fit_indices(data, plans[t].bag, shared ? &*shared : nullptr,
                     shared_bins ? &*shared_bins : nullptr);
    trees[t] = std::move(tree);
  });
  trees_ = std::move(trees);
}

int RandomForest::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> row) const {
  if (trees_.empty()) throw util::DataError{"RandomForest: not fitted"};
  std::vector<double> acc(static_cast<std::size_t>(classes_), 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double> p = tree.predict_proba(row);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

std::vector<double> RandomForest::predict_proba_batch(
    std::span<const double> rows, std::size_t dim, std::size_t count) const {
  if (trees_.empty()) throw util::DataError{"RandomForest: not fitted"};
  if (rows.size() != dim * count) {
    throw util::DataError{"RandomForest: rows/dim/count mismatch"};
  }
  const auto classes = static_cast<std::size_t>(classes_);
  std::vector<double> acc(count * classes, 0.0);
  // Trees outer, rows inner: each tree's node array stays hot across
  // the whole batch. Per row the accumulation still visits trees in
  // index order, so every result row is bitwise identical to the
  // single-row predict_proba for that row.
  for (const DecisionTree& tree : trees_) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<double> p = tree.predict_proba(rows.subspan(i * dim, dim));
      double* a = acc.data() + i * classes;
      for (std::size_t c = 0; c < classes; ++c) a[c] += p[c];
    }
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

std::unique_ptr<Classifier> RandomForest::clone() const {
  return std::make_unique<RandomForest>(config_);
}

void RandomForest::serialize(std::ostream& out) const {
  if (trees_.empty()) throw util::DataError{"RandomForest::serialize: not fitted"};
  out << classes_ << ' ' << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) tree.serialize(out);
}

void RandomForest::deserialize(std::istream& in) {
  std::size_t count = 0;
  in >> classes_ >> count;
  if (!in || classes_ <= 0) {
    throw util::DataError{"RandomForest::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "RandomForest::deserialize classes");
  detail::check_count(count, detail::kMaxEnsemble,
                      "RandomForest::deserialize trees");
  trees_.clear();
  for (std::size_t t = 0; t < count; ++t) {
    DecisionTree tree;
    tree.deserialize(in);
    // predict_proba sums tree distributions into a classes_-sized
    // accumulator, so a class-count mismatch would read out of bounds.
    if (tree.classes() != classes_) {
      throw util::DataError{"RandomForest::deserialize: tree class mismatch"};
    }
    trees_.push_back(std::move(tree));
  }
  if (!in) throw util::DataError{"RandomForest::deserialize: truncated"};
}

void RandomSubspace::fit(const Dataset& data) {
  data.validate();
  if (config_.ensemble_size == 0) {
    throw util::ConfigError{"RandomSubspace: ensemble_size must be > 0"};
  }
  if (config_.subspace_fraction <= 0.0 || config_.subspace_fraction > 1.0) {
    throw util::ConfigError{"RandomSubspace: fraction must be in (0,1]"};
  }
  classes_ = data.class_count;
  trees_.clear();
  subspaces_.clear();
  util::Rng rng{config_.seed};

  const std::size_t dim = data.dim();
  const auto sub_dim = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::round(config_.subspace_fraction * static_cast<double>(dim))));

  std::vector<std::size_t> all_features(dim);
  for (std::size_t i = 0; i < dim; ++i) all_features[i] = i;

  // Serial RNG phase (identical draw order to the serial loop): pick
  // each tree's column subset and seed. The projection + fit fan out.
  struct SubspacePlan {
    TreeConfig cfg;
    std::vector<std::size_t> cols;
  };
  std::vector<SubspacePlan> plans(config_.ensemble_size);
  for (std::size_t t = 0; t < config_.ensemble_size; ++t) {
    rng.shuffle(all_features);
    std::vector<std::size_t> cols{all_features.begin(),
                                  all_features.begin() + static_cast<std::ptrdiff_t>(sub_dim)};
    std::sort(cols.begin(), cols.end());
    TreeConfig cfg = config_.tree;
    cfg.seed = rng.next();
    plans[t] = SubspacePlan{cfg, std::move(cols)};
  }

  std::vector<DecisionTree> trees(config_.ensemble_size);
  util::parallel_for(config_.parallelism, plans.size(), [&](std::size_t t) {
    OBS_SPAN_ARG("ml.subspace_fit", "tree", t);
    const std::vector<std::size_t>& cols = plans[t].cols;
    Dataset projected;
    projected.class_count = data.class_count;
    projected.class_names = data.class_names;
    projected.y = data.y;
    projected.x.reserve(data.size());
    for (const auto& row : data.x) {
      std::vector<double> r(sub_dim);
      for (std::size_t j = 0; j < sub_dim; ++j) r[j] = row[cols[j]];
      projected.x.push_back(std::move(r));
    }
    DecisionTree tree{plans[t].cfg};
    tree.fit(projected);
    trees[t] = std::move(tree);
  });
  trees_ = std::move(trees);
  subspaces_.reserve(config_.ensemble_size);
  for (SubspacePlan& plan : plans) subspaces_.push_back(std::move(plan.cols));
}

int RandomSubspace::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> RandomSubspace::predict_proba(
    std::span<const double> row) const {
  if (trees_.empty()) throw util::DataError{"RandomSubspace: not fitted"};
  std::vector<double> acc(static_cast<std::size_t>(classes_), 0.0);
  std::vector<double> projected;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const std::vector<std::size_t>& cols = subspaces_[t];
    projected.resize(cols.size());
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] >= row.size()) {
        throw util::DataError{"RandomSubspace: row narrower than subspace"};
      }
      projected[j] = row[cols[j]];
    }
    const std::vector<double> p = trees_[t].predict_proba(projected);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

std::vector<double> RandomSubspace::predict_proba_batch(
    std::span<const double> rows, std::size_t dim, std::size_t count) const {
  if (trees_.empty()) throw util::DataError{"RandomSubspace: not fitted"};
  if (rows.size() != dim * count) {
    throw util::DataError{"RandomSubspace: rows/dim/count mismatch"};
  }
  const auto classes = static_cast<std::size_t>(classes_);
  std::vector<double> acc(count * classes, 0.0);
  std::vector<double> projected;
  // Trees outer so each subspace projection plan and tree stay hot
  // across the batch; per-row tree order matches the single-row path.
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const std::vector<std::size_t>& cols = subspaces_[t];
    projected.resize(cols.size());
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const double> row = rows.subspan(i * dim, dim);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] >= row.size()) {
          throw util::DataError{"RandomSubspace: row narrower than subspace"};
        }
        projected[j] = row[cols[j]];
      }
      const std::vector<double> p = trees_[t].predict_proba(projected);
      double* a = acc.data() + i * classes;
      for (std::size_t c = 0; c < classes; ++c) a[c] += p[c];
    }
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

std::unique_ptr<Classifier> RandomSubspace::clone() const {
  return std::make_unique<RandomSubspace>(config_);
}

void RandomSubspace::serialize(std::ostream& out) const {
  if (trees_.empty()) {
    throw util::DataError{"RandomSubspace::serialize: not fitted"};
  }
  out << classes_ << ' ' << trees_.size() << '\n';
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    out << subspaces_[t].size();
    for (const std::size_t c : subspaces_[t]) out << ' ' << c;
    out << '\n';
    trees_[t].serialize(out);
  }
}

void RandomSubspace::deserialize(std::istream& in) {
  std::size_t count = 0;
  in >> classes_ >> count;
  if (!in || classes_ <= 0) {
    throw util::DataError{"RandomSubspace::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "RandomSubspace::deserialize classes");
  detail::check_count(count, detail::kMaxEnsemble,
                      "RandomSubspace::deserialize trees");
  trees_.clear();
  subspaces_.clear();
  for (std::size_t t = 0; t < count; ++t) {
    std::size_t cols = 0;
    in >> cols;
    if (!in) throw util::DataError{"RandomSubspace::deserialize: truncated"};
    detail::check_count(cols, detail::kMaxDim,
                        "RandomSubspace::deserialize subspace");
    std::vector<std::size_t> subspace;
    detail::read_values(in, cols, subspace);
    for (const std::size_t c : subspace) {
      if (c > detail::kMaxDim) {
        throw util::DataError{
            "RandomSubspace::deserialize: column index out of range"};
      }
    }
    subspaces_.push_back(std::move(subspace));
    DecisionTree tree;
    tree.deserialize(in);
    if (tree.classes() != classes_) {
      throw util::DataError{"RandomSubspace::deserialize: tree class mismatch"};
    }
    trees_.push_back(std::move(tree));
  }
  if (!in) throw util::DataError{"RandomSubspace::deserialize: truncated"};
}

}  // namespace emoleak::ml
