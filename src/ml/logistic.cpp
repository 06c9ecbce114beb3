#include "ml/logistic.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "ml/serialize.h"
#include "util/error.h"

namespace emoleak::ml {

void softmax_inplace(std::vector<double>& logits) {
  if (logits.empty()) return;
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : logits) v /= sum;
}

void LogisticRegression::fit(const Dataset& data) {
  data.validate();
  if (data.size() == 0) throw util::DataError{"Logistic: empty dataset"};
  classes_ = data.class_count;
  dim_ = data.dim();
  scaler_.fit(data);
  const Dataset scaled = scaler_.transform(data);

  const std::size_t w_per_class = dim_ + 1;
  weights_.assign(static_cast<std::size_t>(classes_) * w_per_class, 0.0);

  // Full-batch Adam on softmax cross-entropy + ridge.
  std::vector<double> m(weights_.size(), 0.0);
  std::vector<double> v(weights_.size(), 0.0);
  std::vector<double> grad(weights_.size(), 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  const double n = static_cast<double>(scaled.size());

  double prev_loss = std::numeric_limits<double>::infinity();
  std::vector<double> probs(static_cast<std::size_t>(classes_));
  for (int epoch = 1; epoch <= config_.max_epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0.0;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      const std::vector<double>& row = scaled.x[i];
      for (int c = 0; c < classes_; ++c) {
        const double* w = &weights_[static_cast<std::size_t>(c) * w_per_class];
        double z = w[dim_];
        for (std::size_t j = 0; j < dim_; ++j) z += w[j] * row[j];
        probs[static_cast<std::size_t>(c)] = z;
      }
      softmax_inplace(probs);
      const auto target = static_cast<std::size_t>(scaled.y[i]);
      loss -= std::log(std::max(probs[target], 1e-300));
      for (int c = 0; c < classes_; ++c) {
        const double delta =
            probs[static_cast<std::size_t>(c)] -
            (static_cast<std::size_t>(c) == target ? 1.0 : 0.0);
        double* g = &grad[static_cast<std::size_t>(c) * w_per_class];
        for (std::size_t j = 0; j < dim_; ++j) g[j] += delta * row[j];
        g[dim_] += delta;
      }
    }
    loss /= n;
    for (std::size_t k = 0; k < weights_.size(); ++k) {
      grad[k] = grad[k] / n + config_.ridge * weights_[k];
      loss += 0.5 * config_.ridge * weights_[k] * weights_[k] / n;
    }
    if (!std::isfinite(loss)) {
      throw util::NumericalError{"Logistic: non-finite training loss"};
    }

    const double bc1 = 1.0 - std::pow(beta1, epoch);
    const double bc2 = 1.0 - std::pow(beta2, epoch);
    for (std::size_t k = 0; k < weights_.size(); ++k) {
      m[k] = beta1 * m[k] + (1.0 - beta1) * grad[k];
      v[k] = beta2 * v[k] + (1.0 - beta2) * grad[k] * grad[k];
      weights_[k] -=
          config_.learning_rate * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + eps);
    }
    if (std::abs(prev_loss - loss) < config_.tolerance) break;
    prev_loss = loss;
  }
}

std::vector<double> LogisticRegression::logits(
    std::span<const double> scaled) const {
  const std::size_t w_per_class = dim_ + 1;
  std::vector<double> out(static_cast<std::size_t>(classes_));
  for (int c = 0; c < classes_; ++c) {
    const double* w = &weights_[static_cast<std::size_t>(c) * w_per_class];
    double z = w[dim_];
    for (std::size_t j = 0; j < dim_; ++j) z += w[j] * scaled[j];
    out[static_cast<std::size_t>(c)] = z;
  }
  return out;
}

int LogisticRegression::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(
      std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> LogisticRegression::predict_proba(
    std::span<const double> row) const {
  if (classes_ == 0) throw util::DataError{"Logistic: not fitted"};
  const std::vector<double> scaled = scaler_.transform_row(row);
  std::vector<double> p = logits(scaled);
  softmax_inplace(p);
  return p;
}

std::unique_ptr<Classifier> LogisticRegression::clone() const {
  return std::make_unique<LogisticRegression>(config_);
}

void LogisticRegression::serialize(std::ostream& out) const {
  if (classes_ == 0) throw util::DataError{"Logistic::serialize: not fitted"};
  out << std::setprecision(17);
  out << classes_ << ' ' << dim_ << '\n';
  for (const double v : scaler_.mean()) out << v << ' ';
  out << '\n';
  for (const double v : scaler_.stddev()) out << v << ' ';
  out << '\n';
  for (const double v : weights_) out << v << ' ';
  out << '\n';
}

void LogisticRegression::deserialize(std::istream& in) {
  in >> classes_ >> dim_;
  if (!in || classes_ <= 0) {
    throw util::DataError{"Logistic::deserialize: bad header"};
  }
  detail::check_count(static_cast<std::size_t>(classes_), detail::kMaxClasses,
                      "Logistic::deserialize classes");
  detail::check_count(dim_, detail::kMaxDim, "Logistic::deserialize dim");
  std::vector<double> mean;
  std::vector<double> stddev;
  detail::read_values(in, dim_, mean);
  detail::read_values(in, dim_, stddev);
  if (!in) throw util::DataError{"Logistic::deserialize: truncated"};
  for (const double v : stddev) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw util::DataError{"Logistic::deserialize: bad scaler stddev"};
    }
  }
  for (const double v : mean) {
    if (!std::isfinite(v)) {
      throw util::DataError{"Logistic::deserialize: bad scaler mean"};
    }
  }
  scaler_.set_state(std::move(mean), std::move(stddev));
  weights_.clear();
  detail::read_values(in, static_cast<std::size_t>(classes_) * (dim_ + 1),
                      weights_);
  if (!in) throw util::DataError{"Logistic::deserialize: truncated"};
  for (const double v : weights_) {
    if (!std::isfinite(v)) {
      throw util::DataError{"Logistic::deserialize: non-finite weight"};
    }
  }
}

}  // namespace emoleak::ml
