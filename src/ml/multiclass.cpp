#include "ml/multiclass.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "ml/serialize.h"
#include "util/error.h"

namespace emoleak::ml {

void OneVsRestLogistic::fit(const Dataset& data) {
  data.validate();
  classes_ = data.class_count;
  binary_.clear();
  binary_.reserve(static_cast<std::size_t>(classes_));
  for (int c = 0; c < classes_; ++c) {
    Dataset binary_data;
    binary_data.x = data.x;
    binary_data.class_count = 2;
    binary_data.class_names = {"rest", "target"};
    binary_data.feature_names = data.feature_names;
    binary_data.y.reserve(data.y.size());
    for (const int label : data.y) binary_data.y.push_back(label == c ? 1 : 0);
    LogisticConfig cfg = base_config_;
    cfg.seed = base_config_.seed + static_cast<std::uint64_t>(c) + 1;
    LogisticRegression model{cfg};
    model.fit(binary_data);
    binary_.push_back(std::move(model));
  }
}

int OneVsRestLogistic::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> OneVsRestLogistic::predict_proba(
    std::span<const double> row) const {
  if (binary_.empty()) throw util::DataError{"OneVsRest: not fitted"};
  std::vector<double> scores(static_cast<std::size_t>(classes_));
  double sum = 0.0;
  for (int c = 0; c < classes_; ++c) {
    const double p = binary_[static_cast<std::size_t>(c)].predict_proba(row)[1];
    scores[static_cast<std::size_t>(c)] = p;
    sum += p;
  }
  if (sum > 0.0) {
    for (double& s : scores) s /= sum;
  } else {
    std::fill(scores.begin(), scores.end(), 1.0 / classes_);
  }
  return scores;
}

std::unique_ptr<Classifier> OneVsRestLogistic::clone() const {
  return std::make_unique<OneVsRestLogistic>(base_config_);
}

}  // namespace emoleak::ml

namespace emoleak::ml {

void OneVsRestLogistic::serialize(std::ostream& out) const {
  if (binary_.empty()) {
    throw util::DataError{"OneVsRest::serialize: not fitted"};
  }
  out << classes_ << '\n';
  for (const LogisticRegression& model : binary_) model.serialize(out);
}

void OneVsRestLogistic::deserialize(std::istream& in) {
  in >> classes_;
  if (!in || classes_ <= 0) {
    throw util::DataError{"OneVsRest::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "OneVsRest::deserialize classes");
  binary_.clear();
  for (int c = 0; c < classes_; ++c) {
    LogisticRegression model;
    model.deserialize(in);
    // predict_proba reads each member's probability of class 1.
    if (model.classes() != 2) {
      throw util::DataError{"OneVsRest::deserialize: member is not binary"};
    }
    binary_.push_back(std::move(model));
  }
  if (!in) throw util::DataError{"OneVsRest::deserialize: truncated"};
}

}  // namespace emoleak::ml
