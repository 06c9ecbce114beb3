// Sequential model, softmax cross-entropy loss, Adam optimizer, and a
// training loop that records per-epoch history (used to regenerate the
// paper's Figure 7 loss/accuracy curves).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "nn/layers.h"

namespace emoleak::nn {

struct TrainConfig {
  int epochs = 30;
  std::size_t batch_size = 32;
  double learning_rate = 1e-3;
  double validation_fraction = 0.2;  ///< carved from the training set
  std::uint64_t seed = 23;
};

/// Per-epoch training curves (paper Fig. 7).
struct History {
  std::vector<double> train_loss;
  std::vector<double> train_accuracy;
  std::vector<double> val_loss;
  std::vector<double> val_accuracy;
};

/// Softmax cross-entropy on logits. Returns mean loss; writes
/// dLoss/dLogits (already divided by batch size) into `grad`.
[[nodiscard]] double softmax_cross_entropy(const Tensor& logits,
                                           const std::vector<int>& labels,
                                           Tensor& grad);

class Sequential {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  /// Forward through all layers.
  [[nodiscard]] Tensor forward(const Tensor& x, bool training);

  /// Forward returning a reference into the last layer's reused output
  /// buffer — no copy, so steady-state inference stays allocation-free.
  /// The reference is invalidated by the next forward/backward call.
  [[nodiscard]] const Tensor& forward_ref(const Tensor& x, bool training);

  /// Backward through all layers (after a forward).
  Tensor backward(const Tensor& grad);

  /// Propagates a parallelism knob to every layer that supports
  /// data-parallel execution (see Layer::set_parallelism): inference
  /// and train() alike. Results, trained weights included, are
  /// bit-identical at any thread count.
  void set_parallelism(const util::Parallelism& par);

  [[nodiscard]] std::vector<Parameter*> parameters();

  /// Trains with Adam on mini-batches; returns the epoch history.
  /// `x` is the full training tensor (leading batch axis). Its last act
  /// is Layer::release_scratch on every layer, so the trained model
  /// holds no buffer sized to the training batch.
  History train(const Tensor& x, const std::vector<int>& labels,
                int class_count, const TrainConfig& config);

  /// Mean loss + accuracy of the model on a labelled set (inference mode).
  [[nodiscard]] std::pair<double, double> evaluate(const Tensor& x,
                                                   const std::vector<int>& labels);

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }

 private:
  /// Rows `indices` of `x` gathered into `out` (resized in place so a
  /// buffer reused across batches stops allocating once warm).
  static void gather(const Tensor& x, std::span<const std::size_t> indices,
                     Tensor& out);

  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Adam optimizer over a parameter set.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate);

  void step();

 private:
  std::vector<Parameter*> params_;
  double lr_;
  double beta1_ = 0.9, beta2_ = 0.999, eps_ = 1e-8;
  long t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace emoleak::nn
