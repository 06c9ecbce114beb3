#include "ml/lmt.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "ml/serialize.h"
#include "util/error.h"

namespace emoleak::ml {

void LogisticModelTree::fit(const Dataset& data) {
  data.validate();
  classes_ = data.class_count;

  TreeConfig tree_cfg;
  tree_cfg.max_depth = config_.tree_depth;
  tree_cfg.min_samples_split = std::max<std::size_t>(2 * config_.min_leaf_samples, 4);
  tree_cfg.min_samples_leaf = config_.min_leaf_samples;
  tree_cfg.seed = config_.seed;
  structure_ = DecisionTree{tree_cfg};
  structure_.fit(data);

  // Route every training row to its leaf and fit one logistic model per
  // leaf that has enough data and more than one class.
  const std::size_t leaves = structure_.leaf_count();
  std::vector<std::vector<std::size_t>> leaf_rows(leaves);
  for (std::size_t i = 0; i < data.size(); ++i) {
    leaf_rows[structure_.leaf_index(data.x[i])].push_back(i);
  }

  leaf_models_.clear();
  leaf_models_.resize(leaves);
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    const std::vector<std::size_t>& rows = leaf_rows[leaf];
    if (rows.size() < config_.min_leaf_samples) continue;
    Dataset leaf_data = data.subset(rows);
    bool multiclass = false;
    for (const int y : leaf_data.y) {
      if (y != leaf_data.y[0]) {
        multiclass = true;
        break;
      }
    }
    if (!multiclass) continue;  // pure leaf: tree distribution suffices
    LogisticConfig cfg = config_.leaf_logistic;
    cfg.seed = config_.seed + leaf + 1;
    auto model = std::make_unique<LogisticRegression>(cfg);
    model->fit(leaf_data);
    leaf_models_[leaf] = std::move(model);
  }
}

int LogisticModelTree::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> LogisticModelTree::predict_proba(
    std::span<const double> row) const {
  if (classes_ == 0) throw util::DataError{"LMT: not fitted"};
  const std::size_t leaf = structure_.leaf_index(row);
  if (leaf < leaf_models_.size() && leaf_models_[leaf]) {
    return leaf_models_[leaf]->predict_proba(row);
  }
  return structure_.predict_proba(row);
}

std::unique_ptr<Classifier> LogisticModelTree::clone() const {
  return std::make_unique<LogisticModelTree>(config_);
}

}  // namespace emoleak::ml

namespace emoleak::ml {

void LogisticModelTree::serialize(std::ostream& out) const {
  if (classes_ == 0) throw util::DataError{"LMT::serialize: not fitted"};
  out << classes_ << ' ' << leaf_models_.size() << '\n';
  structure_.serialize(out);
  for (const auto& model : leaf_models_) {
    out << (model ? 1 : 0) << '\n';
    if (model) model->serialize(out);
  }
}

void LogisticModelTree::deserialize(std::istream& in) {
  std::size_t leaves = 0;
  in >> classes_ >> leaves;
  if (!in || classes_ <= 0) {
    throw util::DataError{"LMT::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "LMT::deserialize classes");
  detail::check_count(leaves, detail::kMaxNodes, "LMT::deserialize leaves");
  structure_.deserialize(in);
  if (structure_.classes() != classes_) {
    throw util::DataError{"LMT::deserialize: structure class mismatch"};
  }
  leaf_models_.clear();
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    int present = 0;
    in >> present;
    if (!in || (present != 0 && present != 1)) {
      throw util::DataError{"LMT::deserialize: bad leaf-model flag"};
    }
    std::unique_ptr<LogisticRegression>& model = leaf_models_.emplace_back();
    if (present) {
      model = std::make_unique<LogisticRegression>();
      model->deserialize(in);
      if (model->classes() != classes_) {
        throw util::DataError{"LMT::deserialize: leaf model class mismatch"};
      }
    }
  }
  if (!in) throw util::DataError{"LMT::deserialize: truncated"};
}

}  // namespace emoleak::ml
