// Extended evaluation metrics and reporting.
//
// Beyond raw accuracy (which the paper reports), downstream users need
// per-class breakdowns, chance-corrected agreement and formatted
// reports to judge a side channel whose class priors may be skewed.
#pragma once

#include <string>
#include <vector>

#include "ml/eval.h"

namespace emoleak::ml {

/// Cohen's kappa: agreement corrected for chance. 0 = chance-level,
/// 1 = perfect. More honest than accuracy under class imbalance.
[[nodiscard]] double cohens_kappa(const ConfusionMatrix& cm);

/// Matthews correlation coefficient generalized to multiclass
/// (the R_k statistic). In [-1, 1]; 0 = chance.
[[nodiscard]] double matthews_corrcoef(const ConfusionMatrix& cm);

/// Per-class precision/recall/F1/support rows plus summary lines,
/// rendered as a text table (sklearn-style classification report).
[[nodiscard]] std::string classification_report(
    const ConfusionMatrix& cm, const std::vector<std::string>& class_names);

}  // namespace emoleak::ml
