// Minimal dense tensor for the from-scratch CNN stack.
//
// Row-major, float storage, NHWC layout for images. Only what the
// EmoLeak classifiers need: shape bookkeeping, element access, and a
// few arithmetic helpers. Gradient correctness of everything built on
// top is verified by finite-difference tests.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace emoleak::nn {

/// Process-wide count of tensor storage growths (heap allocations for
/// tensor data). Steady-state hot loops reuse capacity via resize() and
/// copy-assignment, so the counter stabilizing after warm-up is the
/// zero-allocation contract the layer tests assert.
[[nodiscard]] std::size_t tensor_alloc_count() noexcept;

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);
  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept = default;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept = default;

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::vector<float>& storage() noexcept { return data_; }
  [[nodiscard]] const std::vector<float>& storage() const noexcept {
    return data_;
  }

  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

  /// 4-D accessor for NHWC tensors (bounds unchecked in release).
  [[nodiscard]] float& at4(std::size_t n, std::size_t h, std::size_t w,
                           std::size_t c) noexcept {
    return data_[((n * shape_[1] + h) * shape_[2] + w) * shape_[3] + c];
  }
  [[nodiscard]] const float& at4(std::size_t n, std::size_t h, std::size_t w,
                                 std::size_t c) const noexcept {
    return data_[((n * shape_[1] + h) * shape_[2] + w) * shape_[3] + c];
  }

  /// 2-D accessor for (N, D) tensors.
  [[nodiscard]] float& at2(std::size_t n, std::size_t d) noexcept {
    return data_[n * shape_[1] + d];
  }
  [[nodiscard]] const float& at2(std::size_t n, std::size_t d) const noexcept {
    return data_[n * shape_[1] + d];
  }

  void fill(float value) noexcept;

  /// Reshapes in place, reusing existing capacity when possible (no
  /// heap traffic once a layer's buffers are warm). When the element
  /// count is unchanged this is a pure reshape (data preserved);
  /// otherwise contents are unspecified — callers overwrite or fill().
  void resize(std::span<const std::size_t> dims);
  void resize(std::initializer_list<std::size_t> dims) {
    resize(std::span<const std::size_t>{dims.begin(), dims.size()});
  }

  /// True if shapes match exactly.
  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

[[nodiscard]] std::size_t shape_size(const std::vector<std::size_t>& shape) noexcept;

}  // namespace emoleak::nn
