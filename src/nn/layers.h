// Neural-network layers (forward + backward).
//
// Implements exactly what the paper's two Keras models need (§IV-C2,
// §IV-D2): Conv2D with zero padding, ReLU, MaxPool2D, Dropout,
// BatchNorm, Flatten and Dense. All layers operate on batched NHWC
// tensors; (N, D) tensors are treated by Dense/Dropout/BatchNorm as
// 2-D. Backward passes are verified against finite differences in the
// test suite.
//
// Memory discipline: forward/backward return references to buffers the
// layer owns and reuses (resize() keeps capacity), and Conv2D draws its
// im2col scratch from a private util::Workspace — after the first pass
// at a given shape, the hot loop performs zero heap allocations
// (asserted via tensor_alloc_count() in the layer tests). The returned
// reference stays valid until the layer's next forward/backward call.
// Those buffers are sized to the largest batch seen, so a network
// trained at batch 32 would keep batch-32 activations, gradients and
// patch slabs for as long as it lives. release_scratch() frees them;
// Sequential::train calls it on every layer when training ends, so a
// fitted model holds its parameters only and the next forward grows
// buffers once, at its own batch size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/workspace.h"

namespace emoleak::nn {

/// A learnable parameter with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `training` enables dropout / batch-stat collection.
  /// Returns a reference to layer-owned storage, valid until the next
  /// call on this layer (identity layers may return `x` itself).
  [[nodiscard]] virtual const Tensor& forward(const Tensor& x,
                                              bool training) = 0;

  /// Backward pass for the most recent forward; returns dLoss/dInput
  /// (same lifetime rules as forward()).
  [[nodiscard]] virtual const Tensor& backward(const Tensor& grad_out) = 0;

  /// Learnable parameters (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Parameter*> parameters() { return {}; }

  /// Opts the layer into data-parallel execution over the shared pool.
  /// Conv2D fans a multi-image batch out in forward (training and
  /// inference, per image) and backward (dX per image, dW per kernel
  /// tap). Bit-exactness is unconditional — each output element is
  /// produced by exactly one task with the same k-ascending sequence as
  /// the serial pass — so this only changes speed, never results.
  /// Single-image batches always run serial.
  virtual void set_parallelism(const util::Parallelism& /*par*/) {}

  /// Frees every buffer the layer reuses across calls (outputs,
  /// gradients, masks, cached inputs, workspace blocks); parameters,
  /// running statistics and RNG state stay. Invalidates references
  /// returned by forward/backward. The next forward/backward computes
  /// the same bits as without the release; it only allocates again.
  virtual void release_scratch() = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  Layer() = default;
};

/// 2-D convolution, NHWC, stride 1, 'same' zero padding (Keras
/// padding="same", which the paper's time-frequency CNN uses) or
/// 'valid'. Lowered to im2col + blocked GEMM (see nn/gemm.h); backward
/// computes dX = col2im(dOut·Wᵀ) per image against a transposed weight
/// copy and dW per kernel tap from that tap's patch columns. The naive
/// direct loop survives in gemm.h as the parity-test reference.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel_h,
         std::size_t kernel_w, bool same_padding, std::uint64_t seed);

  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Parameter*> parameters() override;
  void set_parallelism(const util::Parallelism& par) override { par_ = par; }
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  /// The layer's scratch arena (exposed so tests can assert that the
  /// steady state performs no workspace growth).
  [[nodiscard]] const util::Workspace& workspace() const noexcept {
    return ws_;
  }

 private:
  std::size_t in_c_, out_c_, kh_, kw_;
  bool same_;
  util::Parallelism par_ = util::Parallelism::serial_only();
  Parameter weight_;  ///< [KH, KW, Cin, Cout]
  Parameter bias_;    ///< [Cout]
  Tensor input_;      ///< cached for backward
  Tensor out_, gin_;
  util::Workspace ws_;  ///< per-task patch slabs, Wᵀ, dCol and tap columns
};

class ReLU final : public Layer {
 public:
  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor out_, gin_;  ///< out_ doubles as the mask: gin = g * (out > 0)
};

/// Max pooling over (pool x pool) windows with matching stride
/// ('valid': trailing rows/cols that do not fill a window are dropped,
/// Keras default).
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t pool_h, std::size_t pool_w);

  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }

 private:
  std::size_t ph_, pw_;
  Tensor in_;  ///< retained input; backward re-derives the argmax from it
  Tensor out_, gin_;
  std::vector<std::uint32_t> claimed_;  ///< backward: 1 = channel routed
};

/// Inverted dropout: scales kept activations by 1/(1-rate) in training,
/// identity at inference (Keras semantics).
class Dropout final : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);

  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  double rate_;
  util::Rng rng_;
  Tensor mask_;  ///< empty (size 0) when the last forward was identity
  Tensor out_, gin_;
};

/// Batch normalization over all axes except the last (channel) axis,
/// with learnable scale/shift and running statistics for inference.
class BatchNorm final : public Layer {
 public:
  BatchNorm(std::size_t channels, double momentum = 0.9, double epsilon = 1e-5);

  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Parameter*> parameters() override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "BatchNorm"; }

 private:
  std::size_t channels_;
  double momentum_, eps_;
  Parameter gamma_, beta_;
  std::vector<float> running_mean_, running_var_;
  // Per-call scratch lives in the layer so forward() allocates nothing
  // once warm (mean_/var_ used to be stack vectors rebuilt every call).
  std::vector<float> mean_, var_;
  std::vector<float> sum_g_, sum_gx_;
  // Backward caches:
  Tensor x_hat_;
  std::vector<float> batch_mean_, batch_inv_std_;
  Tensor out_, gin_;
};

/// Flattens (N, ...) to (N, D).
class Flatten final : public Layer {
 public:
  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
  Tensor out_, gin_;
};

/// Fully connected layer on (N, D) tensors, lowered to GEMM.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, std::uint64_t seed);

  [[nodiscard]] const Tensor& forward(const Tensor& x, bool training) override;
  [[nodiscard]] const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::vector<Parameter*> parameters() override;
  void release_scratch() override;
  [[nodiscard]] std::string name() const override { return "Dense"; }

 private:
  std::size_t in_d_, out_d_;
  Parameter weight_;  ///< [D_in, D_out]
  Parameter bias_;    ///< [D_out]
  Tensor input_;
  Tensor out_, gin_;
};

}  // namespace emoleak::nn
