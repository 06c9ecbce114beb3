// Ridge-regularized multinomial logistic regression.
//
// The counterpart of Weka's `functions.Logistic` (the paper's strongest
// classical classifier on TESS, Table V). Trained with full-batch Adam
// on the softmax cross-entropy with L2 penalty; features are z-scored
// internally.
#pragma once

#include <cstdint>

#include "ml/classifier.h"

namespace emoleak::ml {

struct LogisticConfig {
  double ridge = 1e-4;      ///< L2 penalty (Weka default 1e-8; we use a
                            ///< slightly larger value for stability)
  int max_epochs = 400;
  double learning_rate = 0.1;
  double tolerance = 1e-7;  ///< stop when loss improvement falls below
  std::uint64_t seed = 7;
};

class LogisticRegression final : public Classifier {
 public:
  LogisticRegression() = default;
  explicit LogisticRegression(LogisticConfig config) : config_{config} {}

  void fit(const Dataset& data) override;
  [[nodiscard]] int predict(std::span<const double> row) const override;
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> row) const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone() const override;
  [[nodiscard]] std::string name() const override { return "Logistic"; }
  void serialize(std::ostream& out) const override;
  void deserialize(std::istream& in) override;

  [[nodiscard]] const LogisticConfig& config() const noexcept { return config_; }
  [[nodiscard]] int classes() const noexcept { return classes_; }

 private:
  /// Logits for a scaled row.
  [[nodiscard]] std::vector<double> logits(std::span<const double> scaled) const;

  LogisticConfig config_{};
  StandardScaler scaler_;
  int classes_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> weights_;  ///< classes x (dim + 1), bias last
};

/// Softmax in place; numerically stable.
void softmax_inplace(std::vector<double>& logits);

}  // namespace emoleak::ml
