#include "tasks/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>

#include "ml/logistic.h"   // softmax_inplace
#include "ml/serialize.h"  // detail::check_count, detail::read_values
#include "util/error.h"

namespace emoleak::tasks {

void FingerprintClassifier::fit(const ml::Dataset& data) {
  data.validate();
  if (data.size() == 0) {
    throw util::DataError{"FingerprintClassifier::fit: empty dataset"};
  }
  classes_ = data.class_count;
  dim_ = data.dim();
  templates_.assign(static_cast<std::size_t>(classes_) * dim_, 0.0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(classes_), 0);

  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = static_cast<std::size_t>(data.y[i]);
    double* t = templates_.data() + c * dim_;
    for (std::size_t j = 0; j < dim_; ++j) t[j] += data.x[i][j];
    ++counts[c];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(classes_); ++c) {
    if (counts[c] == 0) continue;  // zero template: never matches
    double* t = templates_.data() + c * dim_;
    double norm = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) norm += t[j] * t[j];
    norm = std::sqrt(norm);
    if (norm <= 0.0) continue;
    for (std::size_t j = 0; j < dim_; ++j) t[j] /= norm;
  }
}

std::vector<double> FingerprintClassifier::similarities(
    std::span<const double> row) const {
  if (classes_ == 0) {
    throw util::DataError{"FingerprintClassifier: not fitted"};
  }
  if (row.size() != dim_) {
    throw util::DataError{"FingerprintClassifier: row dimension mismatch"};
  }
  double row_norm = 0.0;
  for (const double v : row) row_norm += v * v;
  row_norm = std::sqrt(row_norm);
  const double inv = row_norm > 0.0 ? 1.0 / row_norm : 0.0;

  std::vector<double> sims(static_cast<std::size_t>(classes_), 0.0);
  for (std::size_t c = 0; c < sims.size(); ++c) {
    const double* t = templates_.data() + c * dim_;
    double dot = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) dot += t[j] * row[j];
    sims[c] = dot * inv;  // templates are unit-norm already
  }
  return sims;
}

int FingerprintClassifier::predict(std::span<const double> row) const {
  const std::vector<double> sims = similarities(row);
  return static_cast<int>(
      std::max_element(sims.begin(), sims.end()) - sims.begin());
}

std::vector<double> FingerprintClassifier::predict_proba(
    std::span<const double> row) const {
  std::vector<double> sims = similarities(row);
  for (double& s : sims) s *= config_.sharpness;
  ml::softmax_inplace(sims);
  return sims;
}

std::vector<double> FingerprintClassifier::predict_proba_batch(
    std::span<const double> rows, std::size_t dim, std::size_t count) const {
  if (classes_ == 0) {
    throw util::DataError{"FingerprintClassifier: not fitted"};
  }
  if (rows.size() != dim * count) {
    throw util::DataError{"FingerprintClassifier: rows/dim/count mismatch"};
  }
  const auto classes = static_cast<std::size_t>(classes_);
  std::vector<double> out(count * classes, 0.0);
  // Templates stay hot across the batch; per row this is exactly the
  // similarities → sharpness → softmax chain of predict_proba.
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> sims = similarities(rows.subspan(i * dim, dim));
    for (double& s : sims) s *= config_.sharpness;
    ml::softmax_inplace(sims);
    std::copy(sims.begin(), sims.end(), out.begin() + i * classes);
  }
  return out;
}

std::unique_ptr<ml::Classifier> FingerprintClassifier::clone() const {
  return std::make_unique<FingerprintClassifier>(*this);
}

void FingerprintClassifier::serialize(std::ostream& out) const {
  if (classes_ == 0) {
    throw util::DataError{"FingerprintClassifier::serialize: not fitted"};
  }
  out << std::setprecision(17);
  out << "fingerprint " << config_.sharpness << ' ' << classes_ << ' '
      << dim_ << '\n';
  for (const double v : templates_) out << v << ' ';
  out << '\n';
}

void FingerprintClassifier::deserialize(std::istream& in) {
  std::string tag;
  double sharpness = 0.0;
  std::size_t classes = 0;
  std::size_t dim = 0;
  if (!(in >> tag >> sharpness >> classes >> dim) || tag != "fingerprint") {
    throw util::DataError{"FingerprintClassifier: malformed header"};
  }
  ml::detail::check_count(classes, ml::detail::kMaxClasses,
                          "fingerprint classes");
  ml::detail::check_count(dim, ml::detail::kMaxDim, "fingerprint dim");
  std::vector<double> templates;
  ml::detail::read_values(in, classes * dim, templates);
  if (!in) {
    throw util::DataError{"FingerprintClassifier: truncated templates"};
  }
  config_.sharpness = sharpness;
  classes_ = static_cast<int>(classes);
  dim_ = dim;
  templates_ = std::move(templates);
}

}  // namespace emoleak::tasks
