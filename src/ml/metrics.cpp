#include "ml/metrics.h"

#include <cmath>

#include "util/table.h"

namespace emoleak::ml {

double cohens_kappa(const ConfusionMatrix& cm) {
  const auto& counts = cm.counts();
  const double n = static_cast<double>(cm.total());
  if (n == 0.0) return 0.0;
  const std::size_t k = counts.size();
  double observed = 0.0;
  std::vector<double> row_sum(k, 0.0);
  std::vector<double> col_sum(k, 0.0);
  for (std::size_t r = 0; r < k; ++r) {
    observed += static_cast<double>(counts[r][r]);
    for (std::size_t c = 0; c < k; ++c) {
      row_sum[r] += static_cast<double>(counts[r][c]);
      col_sum[c] += static_cast<double>(counts[r][c]);
    }
  }
  observed /= n;
  double expected = 0.0;
  for (std::size_t i = 0; i < k; ++i) expected += row_sum[i] * col_sum[i];
  expected /= n * n;
  if (expected >= 1.0) return 0.0;
  return (observed - expected) / (1.0 - expected);
}

double matthews_corrcoef(const ConfusionMatrix& cm) {
  const auto& counts = cm.counts();
  const double n = static_cast<double>(cm.total());
  if (n == 0.0) return 0.0;
  const std::size_t k = counts.size();
  double correct = 0.0;
  std::vector<double> t(k, 0.0);  // true per class
  std::vector<double> p(k, 0.0);  // predicted per class
  for (std::size_t r = 0; r < k; ++r) {
    correct += static_cast<double>(counts[r][r]);
    for (std::size_t c = 0; c < k; ++c) {
      t[r] += static_cast<double>(counts[r][c]);
      p[c] += static_cast<double>(counts[r][c]);
    }
  }
  double tp_sum = 0.0;  // sum t_k * p_k
  double t2 = 0.0;
  double p2 = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    tp_sum += t[i] * p[i];
    t2 += t[i] * t[i];
    p2 += p[i] * p[i];
  }
  const double numerator = correct * n - tp_sum;
  const double denominator =
      std::sqrt((n * n - p2) * (n * n - t2));
  if (denominator <= 0.0) return 0.0;
  return numerator / denominator;
}

std::string classification_report(const ConfusionMatrix& cm,
                                  const std::vector<std::string>& class_names) {
  const auto precision = cm.precision();
  const auto recall = cm.recall();
  util::TablePrinter t{{"class", "precision", "recall", "f1", "support"}};
  const auto& counts = cm.counts();
  for (std::size_t c = 0; c < counts.size(); ++c) {
    std::size_t support = 0;
    for (const std::size_t v : counts[c]) support += v;
    const double f1 =
        precision[c] + recall[c] > 0.0
            ? 2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
            : 0.0;
    t.add_row({c < class_names.size() ? class_names[c] : std::to_string(c),
               util::fixed(precision[c]), util::fixed(recall[c]),
               util::fixed(f1), std::to_string(support)});
  }
  t.add_rule();
  t.add_row({"accuracy", "", "", util::fixed(cm.accuracy()),
             std::to_string(cm.total())});
  t.add_row({"macro F1", "", "", util::fixed(cm.macro_f1()), ""});
  t.add_row({"Cohen's kappa", "", "", util::fixed(cohens_kappa(cm)), ""});
  t.add_row({"Matthews CC", "", "", util::fixed(matthews_corrcoef(cm)), ""});
  return t.str();
}

}  // namespace emoleak::ml
