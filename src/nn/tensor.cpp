#include "nn/tensor.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "util/error.h"

namespace emoleak::nn {

namespace {
std::atomic<std::size_t> g_tensor_allocs{0};

void count_alloc(std::size_t elements) noexcept {
  if (elements > 0) {
    g_tensor_allocs.fetch_add(1, std::memory_order_relaxed);
    // Mirrored into the process-wide metrics registry so the layer
    // workspace's zero-allocation contract is monitorable alongside
    // workspace.grows (see tests: steady-state drains keep both flat).
    static obs::Counter& allocs =
        obs::Registry::instance().counter("nn.tensor_allocs");
    allocs.add(1);
  }
}
}  // namespace

std::size_t tensor_alloc_count() noexcept {
  return g_tensor_allocs.load(std::memory_order_relaxed);
}

std::size_t shape_size(const std::vector<std::size_t>& shape) noexcept {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_{std::move(shape)}, data_(shape_size(shape_), 0.0f) {
  count_alloc(data_.size());
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_{std::move(shape)}, data_{std::move(data)} {
  if (data_.size() != shape_size(shape_)) {
    throw util::DataError{"Tensor: data size does not match shape"};
  }
  count_alloc(data_.size());
}

Tensor::Tensor(const Tensor& other)
    : shape_{other.shape_}, data_{other.data_} {
  count_alloc(data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (data_.capacity() < other.data_.size()) count_alloc(other.data_.size());
  // assign() reuses existing capacity; plain vector copy-assignment is
  // allowed to reallocate even when capacity suffices.
  shape_.assign(other.shape_.begin(), other.shape_.end());
  data_.assign(other.data_.begin(), other.data_.end());
  return *this;
}

void Tensor::resize(std::span<const std::size_t> dims) {
  std::size_t n = dims.empty() ? 0 : 1;
  for (const std::size_t d : dims) n *= d;
  if (data_.capacity() < n) count_alloc(n);
  shape_.assign(dims.begin(), dims.end());
  data_.resize(n);
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) throw util::DataError{"Tensor::dim: axis out of range"};
  return shape_[axis];
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace emoleak::nn
