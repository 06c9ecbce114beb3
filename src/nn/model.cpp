#include "nn/model.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "util/error.h"
#include "util/rng.h"

namespace emoleak::nn {

namespace {
/// Rows of (N, C) `logits` whose largest logit is at their label.
std::size_t count_correct(const Tensor& logits, const std::vector<int>& labels) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const float* row = &logits.at2(i, 0);
    if (std::max_element(row, row + logits.dim(1)) - row == labels[i]) {
      ++correct;
    }
  }
  return correct;
}
}  // namespace

double softmax_cross_entropy(const Tensor& logits, const std::vector<int>& labels,
                             Tensor& grad) {
  if (logits.rank() != 2) {
    throw util::DataError{"softmax_cross_entropy: logits must be (N, C)"};
  }
  const std::size_t n = logits.dim(0);
  const std::size_t c = logits.dim(1);
  if (labels.size() != n) {
    throw util::DataError{"softmax_cross_entropy: label count mismatch"};
  }
  grad.resize(logits.shape());
  double loss = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const float* row = &logits.at2(b, 0);
    float max_logit = row[0];
    for (std::size_t j = 1; j < c; ++j) max_logit = std::max(max_logit, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      sum += std::exp(static_cast<double>(row[j] - max_logit));
    }
    const auto target = static_cast<std::size_t>(labels[b]);
    if (target >= c) throw util::DataError{"softmax_cross_entropy: bad label"};
    const double log_sum = std::log(sum);
    loss -= static_cast<double>(row[target] - max_logit) - log_sum;
    for (std::size_t j = 0; j < c; ++j) {
      const double p = std::exp(static_cast<double>(row[j] - max_logit)) / sum;
      grad.at2(b, j) = static_cast<float>(
          (p - (j == target ? 1.0 : 0.0)) / static_cast<double>(n));
    }
  }
  return loss / static_cast<double>(n);
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  // Layers hand back references to their own reused buffers, so the
  // chain is pointer-passing; only the final result is copied out.
  return forward_ref(x, training);
}

const Tensor& Sequential::forward_ref(const Tensor& x, bool training) {
  const Tensor* current = &x;
  for (const std::unique_ptr<Layer>& layer : layers_) {
    current = &layer->forward(*current, training);
  }
  return *current;
}

void Sequential::set_parallelism(const util::Parallelism& par) {
  for (const std::unique_ptr<Layer>& layer : layers_) {
    layer->set_parallelism(par);
  }
}

Tensor Sequential::backward(const Tensor& grad) {
  const Tensor* current = &grad;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    current = &(*it)->backward(*current);
  }
  return *current;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> out;
  for (const std::unique_ptr<Layer>& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

void Sequential::gather(const Tensor& x, std::span<const std::size_t> indices,
                        Tensor& out) {
  std::vector<std::size_t> shape = x.shape();
  const std::size_t row_size = std::accumulate(
      shape.begin() + 1, shape.end(), std::size_t{1}, std::multiplies<>{});
  shape[0] = indices.size();
  out.resize(shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const float* src = x.data() + indices[i] * row_size;
    std::copy(src, src + row_size, out.data() + i * row_size);
  }
}

History Sequential::train(const Tensor& x, const std::vector<int>& labels,
                          int class_count, const TrainConfig& config) {
  if (x.dim(0) != labels.size()) {
    throw util::DataError{"Sequential::train: size mismatch"};
  }
  if (config.epochs < 1 || config.batch_size < 1) {
    throw util::ConfigError{"Sequential::train: bad epochs/batch size"};
  }
  if (labels.empty()) throw util::DataError{"Sequential::train: empty input"};
  for (const int y : labels) {
    if (y < 0 || y >= class_count) {
      throw util::DataError{"Sequential::train: label out of range"};
    }
  }

  util::Rng rng{config.seed};
  const std::size_t n = x.dim(0);

  // Stratified validation carve-out.
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(class_count));
  for (std::size_t i = 0; i < n; ++i) {
    by_class[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  std::vector<std::size_t> train_idx, val_idx;
  for (auto& group : by_class) {
    rng.shuffle(group);
    const auto val_n = static_cast<std::size_t>(
        config.validation_fraction * static_cast<double>(group.size()));
    for (std::size_t i = 0; i < group.size(); ++i) {
      (i < val_n ? val_idx : train_idx).push_back(group[i]);
    }
  }

  Tensor val_x;
  std::vector<int> val_y;
  if (!val_idx.empty()) {
    gather(x, val_idx, val_x);
    val_y.reserve(val_idx.size());
    for (const std::size_t i : val_idx) val_y.push_back(labels[i]);
  }

  Adam optimizer{parameters(), config.learning_rate};
  History history;
  Tensor grad;
  Tensor bx;  // batch buffers live across iterations to reuse capacity
  std::vector<int> by;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(train_idx);
    double epoch_loss = 0.0;
    std::size_t correct = 0;
    std::size_t seen = 0;
    for (std::size_t start = 0; start < train_idx.size();
         start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, train_idx.size());
      const std::span<const std::size_t> batch_idx{train_idx.data() + start,
                                                   end - start};
      gather(x, batch_idx, bx);
      by.clear();
      by.reserve(batch_idx.size());
      for (const std::size_t i : batch_idx) by.push_back(labels[i]);

      const Tensor logits = forward(bx, /*training=*/true);
      const double loss = softmax_cross_entropy(logits, by, grad);
      if (!std::isfinite(loss)) {
        throw util::NumericalError{"Sequential::train: non-finite loss"};
      }
      backward(grad);
      optimizer.step();

      epoch_loss += loss * static_cast<double>(by.size());
      correct += count_correct(logits, by);
      seen += by.size();
    }
    history.train_loss.push_back(epoch_loss / static_cast<double>(seen));
    history.train_accuracy.push_back(static_cast<double>(correct) /
                                     static_cast<double>(seen));
    if (!val_idx.empty()) {
      const auto [vloss, vacc] = evaluate(val_x, val_y);
      history.val_loss.push_back(vloss);
      history.val_accuracy.push_back(vacc);
    }
  }
  // The layers' buffers are sized to the training batch; a fitted model
  // keeps its parameters only, and inference regrows at its own size.
  for (const std::unique_ptr<Layer>& layer : layers_) layer->release_scratch();
  return history;
}

std::pair<double, double> Sequential::evaluate(const Tensor& x,
                                               const std::vector<int>& labels) {
  // Forward kEvalRows rows at a time: the layers' buffers stay batch-sized,
  // and as rows are independent at inference and the GEMMs sum k in
  // ascending order whatever M is, the logits match one whole forward.
  constexpr std::size_t kEvalRows = 32;
  const std::size_t n = x.dim(0);
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Tensor logits, part;
  for (std::size_t at = 0; at < n; at += kEvalRows) {
    gather(x, std::span{rows}.subspan(at, std::min(kEvalRows, n - at)), part);
    const Tensor& out = forward_ref(part, /*training=*/false);
    if (at == 0) logits.resize({n, out.dim(1)});
    std::copy_n(out.data(), out.size(), logits.data() + at * out.dim(1));
  }
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, labels, grad);
  const double correct = static_cast<double>(count_correct(logits, labels));
  return {loss, correct / static_cast<double>(n)};
}

Adam::Adam(std::vector<Parameter*> params, double learning_rate)
    : params_{std::move(params)}, lr_{learning_rate} {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.size(), 0.0f);
    v_.emplace_back(p->value.size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  for (std::size_t p = 0; p < params_.size(); ++p) {
    Parameter& param = *params_[p];
    for (std::size_t i = 0; i < param.value.size(); ++i) {
      const double g = param.grad[i];
      m_[p][i] = static_cast<float>(beta1_ * m_[p][i] + (1.0 - beta1_) * g);
      v_[p][i] = static_cast<float>(beta2_ * v_[p][i] + (1.0 - beta2_) * g * g);
      const double mh = m_[p][i] / bc1;
      const double vh = v_[p][i] / bc2;
      param.value[i] -= static_cast<float>(lr_ * mh / (std::sqrt(vh) + eps_));
    }
  }
}

}  // namespace emoleak::nn
