#include "nn/cnn_classifier.h"

#include <algorithm>
#include <cmath>

#include "ml/logistic.h"  // softmax_inplace
#include "util/error.h"

namespace emoleak::nn {

CnnClassifier::CnnClassifier(Arch arch, std::size_t dim, CnnConfig config,
                             TrainConfig train)
    : arch_{arch}, dim_{dim}, config_{config}, train_{train} {
  if (dim_ == 0) throw util::ConfigError{"CnnClassifier: zero input dim"};
  if (arch_ == Arch::kSpectrogram) {
    side_ = static_cast<std::size_t>(std::lround(std::sqrt(
        static_cast<double>(dim_))));
    if (side_ * side_ != dim_) {
      throw util::ConfigError{"CnnClassifier: spectrogram dim not square"};
    }
  }
}

void CnnClassifier::fit(const ml::Dataset& data) {
  data.validate();
  if (data.size() == 0) throw util::DataError{"CnnClassifier: empty dataset"};
  if (data.dim() != dim_) {
    throw util::DataError{"CnnClassifier: dataset dim mismatch"};
  }
  const std::lock_guard<std::mutex> lock{mu_};
  classes_ = data.class_count;
  const std::size_t n = data.size();
  Tensor x = arch_ == Arch::kTimefreq ? Tensor{{n, 1, dim_, 1}}
                                      : Tensor{{n, side_, side_, 1}};
  if (arch_ == Arch::kTimefreq) scaler_.fit(data);
  for (std::size_t i = 0; i < n; ++i) {
    float* dst = x.data() + i * dim_;
    if (arch_ == Arch::kTimefreq) {
      const std::vector<double> scaled = scaler_.transform_row(data.x[i]);
      for (std::size_t j = 0; j < dim_; ++j) {
        dst[j] = static_cast<float>(scaled[j]);
      }
    } else {
      for (std::size_t j = 0; j < dim_; ++j) {
        dst[j] = static_cast<float>(data.x[i][j]);
      }
    }
  }
  net_ = arch_ == Arch::kTimefreq
             ? build_timefreq_cnn(dim_, classes_, config_)
             : build_spectrogram_cnn(side_, side_, classes_, config_);
  net_.set_parallelism(par_);
  history_ = net_.train(x, data.y, classes_, train_);
}

History CnnClassifier::history() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return history_;
}

void CnnClassifier::set_parallelism(util::Parallelism par) {
  const std::lock_guard<std::mutex> lock{mu_};
  par_ = par;
  net_.set_parallelism(par_);
}

std::vector<double> CnnClassifier::forward_batch(std::span<const double> rows,
                                                 std::size_t dim,
                                                 std::size_t count) const {
  if (classes_ == 0) throw util::DataError{"CnnClassifier: not fitted"};
  if (dim != dim_ || rows.size() != dim * count) {
    throw util::DataError{"CnnClassifier: rows/dim/count mismatch"};
  }
  if (count == 0) return {};  // like ml::Classifier's default
  if (arch_ == Arch::kTimefreq) {
    input_.resize({count, 1, dim_, 1});
  } else {
    input_.resize({count, side_, side_, 1});
  }
  for (std::size_t i = 0; i < count; ++i) {
    float* dst = input_.data() + i * dim_;
    if (arch_ == Arch::kTimefreq) {
      const std::vector<double> scaled =
          scaler_.transform_row(rows.subspan(i * dim_, dim_));
      for (std::size_t j = 0; j < dim_; ++j) {
        dst[j] = static_cast<float>(scaled[j]);
      }
    } else {
      for (std::size_t j = 0; j < dim_; ++j) {
        dst[j] = static_cast<float>(rows[i * dim_ + j]);
      }
    }
  }
  // One forward over all rows. Every layer treats rows independently
  // at inference and the GEMM kernels sum k in ascending order per
  // output element regardless of M, so row i of the logits is bitwise
  // identical to a batch-1 forward of that row.
  const Tensor& logits = net_.forward_ref(input_, /*training=*/false);
  const auto classes = static_cast<std::size_t>(classes_);
  std::vector<double> out(count * classes);
  std::vector<double> p(classes);
  for (std::size_t i = 0; i < count; ++i) {
    const float* row = &logits.at2(i, 0);
    for (std::size_t c = 0; c < classes; ++c) p[c] = row[c];
    ml::softmax_inplace(p);
    std::copy(p.begin(), p.end(), out.begin() + i * classes);
  }
  return out;
}

int CnnClassifier::predict(std::span<const double> row) const {
  const std::vector<double> p = predict_proba(row);
  return static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin());
}

std::vector<double> CnnClassifier::predict_proba(
    std::span<const double> row) const {
  const std::lock_guard<std::mutex> lock{mu_};
  return forward_batch(row, row.size(), 1);
}

std::vector<double> CnnClassifier::predict_proba_batch(
    std::span<const double> rows, std::size_t dim, std::size_t count) const {
  const std::lock_guard<std::mutex> lock{mu_};
  return forward_batch(rows, dim, count);
}

std::unique_ptr<ml::Classifier> CnnClassifier::clone() const {
  return std::make_unique<CnnClassifier>(arch_, dim_, config_, train_);
}

}  // namespace emoleak::nn
