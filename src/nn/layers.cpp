#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/gemm.h"
#include "util/error.h"

namespace emoleak::nn {

namespace {

/// He-uniform initialization (Keras default for ReLU stacks is Glorot;
/// He works marginally better for the shallow nets here and both are
/// acceptable — the distribution is documented so runs reproduce).
void he_uniform_init(Tensor& w, std::size_t fan_in, util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
}

/// out[j] += m[r][j] for r ascending: the per-element order of a serial
/// bias-gradient sum. `restrict` lets the compiler vectorize across j.
void add_column_sums(const float* __restrict m, std::size_t rows,
                     std::size_t cols, float* __restrict out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) out[j] += m[r * cols + j];
  }
}

void check_rank4(const Tensor& x, const char* who) {
  if (x.rank() != 4) throw util::DataError{std::string{who} + ": expected NHWC tensor"};
}

/// Replaces each buffer with an empty one, which returns its heap
/// storage (resize() and assign() would keep the capacity).
template <typename... Buffers>
void free_buffers(Buffers&... buffers) {
  ((buffers = Buffers{}), ...);
}

}  // namespace

// ---------------------------------------------------------------- Conv2D

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w, bool same_padding,
               std::uint64_t seed)
    : in_c_{in_channels},
      out_c_{out_channels},
      kh_{kernel_h},
      kw_{kernel_w},
      same_{same_padding} {
  if (in_c_ == 0 || out_c_ == 0 || kh_ == 0 || kw_ == 0) {
    throw util::ConfigError{"Conv2D: zero-sized configuration"};
  }
  weight_.value = Tensor{{kh_, kw_, in_c_, out_c_}};
  weight_.grad = Tensor{{kh_, kw_, in_c_, out_c_}};
  bias_.value = Tensor{{out_c_}};
  bias_.grad = Tensor{{out_c_}};
  util::Rng rng{seed};
  he_uniform_init(weight_.value, kh_ * kw_ * in_c_, rng);
}

const Tensor& Conv2D::forward(const Tensor& x, bool /*training*/) {
  check_rank4(x, "Conv2D");
  if (x.dim(3) != in_c_) throw util::DataError{"Conv2D: channel mismatch"};
  input_ = x;

  const std::size_t n = x.dim(0), h = x.dim(1), w = x.dim(2);
  const std::size_t pad_h = same_ ? (kh_ - 1) / 2 : 0;
  const std::size_t pad_w = same_ ? (kw_ - 1) / 2 : 0;
  const std::size_t oh = same_ ? h : h - std::min(h, kh_ - 1);
  const std::size_t ow = same_ ? w : w - std::min(w, kw_ - 1);
  if (oh == 0 || ow == 0) throw util::DataError{"Conv2D: input smaller than kernel"};

  out_.resize({n, oh, ow, out_c_});
  const std::size_t rows = oh * ow;
  const std::size_t kcols = kh_ * kw_ * in_c_;
  // A 1x1 unpadded kernel's patch matrix is the input itself — GEMM
  // straight off the NHWC data and skip the im2col copy.
  const bool pointwise = kh_ == 1 && kw_ == 1 && pad_h == 0 && pad_w == 0;
  const float* bias = bias_.value.data();
  const float* wt = weight_.value.data();
  // Multi-image batches fan contiguous image blocks out over the shared
  // pool (set_parallelism), in training and inference alike, one task
  // per block. Each image lowers to a patch matrix (one output position
  // per row, taps ordered like the [KH, KW, Cin, Cout] weights), and a
  // task stacks the patch matrices of several of its images so one
  // GEMM sees a real M dimension. Each task walks its block in
  // sub-slabs of its own col scratch, capped at ~1 MiB so a slab stays
  // in cache and the layer's scratch does not grow with the batch.
  // Bit-exact at any task count, thread count and slab split: every
  // output element is produced by exactly one task, and the GEMM
  // kernels sum k in ascending order per output element whatever M is.
  // Single images run serial.
  const util::Parallelism par =
      n < 2 ? util::Parallelism::serial_only() : par_;
  const std::size_t tasks = par.serial() ? 1 : std::min(n, par.resolved());
  const std::size_t block = (n + tasks - 1) / tasks;  // largest image block
  constexpr std::size_t kTaskColFloats = (1u << 20) / sizeof(float);
  const std::size_t per_image = rows * kcols;
  const std::size_t slab =
      pointwise ? block
                : std::max<std::size_t>(
                      1, std::min(block, kTaskColFloats / per_image));
  const util::Workspace::Scope scope{ws_};
  std::span<float> col;
  if (!pointwise) col = ws_.take<float>(tasks * slab * per_image);
  util::parallel_for(par, tasks, [&](std::size_t t) {
    const std::size_t end = n * (t + 1) / tasks;
    for (std::size_t b0 = n * t / tasks; b0 < end; b0 += slab) {
      const std::size_t count = std::min(slab, end - b0);
      const float* a = nullptr;
      if (pointwise) {
        a = x.data() + b0 * per_image;
      } else {
        float* task_col = col.data() + t * slab * per_image;
        for (std::size_t i = 0; i < count; ++i) {
          im2col(&x.at4(b0 + i, 0, 0, 0), h, w, in_c_, kh_, kw_, 1, 1, pad_h,
                 pad_w, oh, ow, task_col + i * per_image);
        }
        a = task_col;
      }
      float* out0 = out_.data() + b0 * rows * out_c_;
      for (std::size_t r = 0; r < count * rows; ++r) {
        std::memcpy(out0 + r * out_c_, bias, out_c_ * sizeof(float));
      }
      gemm(count * rows, out_c_, kcols, a, wt, out0, /*accumulate=*/true);
    }
  });
  return out_;
}

const Tensor& Conv2D::backward(const Tensor& grad_out) {
  check_rank4(grad_out, "Conv2D::backward");
  const Tensor& x = input_;
  const std::size_t n = x.dim(0), h = x.dim(1), w = x.dim(2);
  const std::size_t oh = grad_out.dim(1), ow = grad_out.dim(2);
  const std::size_t pad_h = same_ ? (kh_ - 1) / 2 : 0;
  const std::size_t pad_w = same_ ? (kw_ - 1) / 2 : 0;
  const std::size_t rows = oh * ow;
  const std::size_t kcols = kh_ * kw_ * in_c_;
  const float* g = grad_out.data();

  gin_.resize({n, h, w, in_c_});
  weight_.grad.fill(0.0f);
  bias_.grad.fill(0.0f);
  add_column_sums(g, n * rows, out_c_, bias_.grad.data());

  // Both passes below fan out over the pool and stay bit-identical to
  // the serial loop at any thread count: each output element is written
  // by exactly one task, with the same k-ascending sum as serial.
  const util::Parallelism par =
      n < 2 ? util::Parallelism::serial_only() : par_;
  const util::Workspace::Scope scope{ws_};

  // dX, split by image: dCol = dOut · Wᵀ on the register-tiled GEMM
  // against a transposed weight copy, scattered back by col2im. Each
  // task owns one image's dCol.
  const std::span<float> wt = ws_.take<float>(out_c_ * kcols);
  for (std::size_t t = 0; t < kcols; ++t) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      wt[oc * kcols + t] = weight_.value[t * out_c_ + oc];
    }
  }
  const std::size_t image_tasks =
      par.serial() ? 1 : std::min(n, par.resolved());
  const std::span<float> dcol = ws_.take<float>(image_tasks * rows * kcols);
  util::parallel_for(par, image_tasks, [&](std::size_t t) {
    float* dc = dcol.data() + t * rows * kcols;
    for (std::size_t b = n * t / image_tasks; b < n * (t + 1) / image_tasks;
         ++b) {
      gemm(rows, kcols, out_c_, g + b * rows * out_c_, wt.data(), dc,
           /*accumulate=*/false);
      float* gx = &gin_.at4(b, 0, 0, 0);
      std::fill(gx, gx + h * w * in_c_, 0.0f);
      col2im(dc, h, w, in_c_, kh_, kw_, 1, 1, pad_h, pad_w, oh, ow, gx);
    }
  });

  // dW, split by kernel tap: tap (ki, kj) owns weight rows
  // [(ki*kw + kj)*Cin, +Cin) and sums colᵀ · dOut over every (image,
  // output row) in order, reading its patch columns image by image.
  const std::size_t taps = kh_ * kw_;
  const std::size_t tap_tasks =
      par.serial() ? 1 : std::min(taps, par.resolved());
  const std::span<float> tcol = ws_.take<float>(tap_tasks * rows * in_c_);
  util::parallel_for(par, tap_tasks, [&](std::size_t t) {
    float* tc = tcol.data() + t * rows * in_c_;
    for (std::size_t tap = taps * t / tap_tasks;
         tap < taps * (t + 1) / tap_tasks; ++tap) {
      float* gw = weight_.grad.data() + tap * in_c_ * out_c_;
      for (std::size_t b = 0; b < n; ++b) {
        im2col_tap(&x.at4(b, 0, 0, 0), h, w, in_c_, tap / kw_, tap % kw_, 1, 1,
                   pad_h, pad_w, oh, ow, tc);
        gemm_at(in_c_, out_c_, rows, tc, g + b * rows * out_c_, gw,
                /*accumulate=*/true);
      }
    }
  });
  return gin_;
}

std::vector<Parameter*> Conv2D::parameters() { return {&weight_, &bias_}; }

void Conv2D::release_scratch() {
  free_buffers(input_, out_, gin_);
  ws_.release();
}

// ------------------------------------------------------------------ ReLU

const Tensor& ReLU::forward(const Tensor& x, bool /*training*/) {
  out_.resize(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out_[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return out_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  if (!grad_out.same_shape(out_)) {
    throw util::DataError{"ReLU::backward: shape mismatch"};
  }
  gin_.resize(grad_out.shape());
  // Branch-free: both loads are unconditional, so the select vectorizes
  // to compare + blend. The mask of a ReLU output is data-dependent; a
  // branch on it mispredicts about half the time.
  const float* out = out_.data();
  const float* g = grad_out.data();
  float* gi = gin_.data();
  const std::size_t size = grad_out.size();
  for (std::size_t i = 0; i < size; ++i) {
    const float gv = g[i];
    gi[i] = out[i] > 0.0f ? gv : 0.0f;
  }
  return gin_;
}

void ReLU::release_scratch() { free_buffers(out_, gin_); }

// ------------------------------------------------------------- MaxPool2D

MaxPool2D::MaxPool2D(std::size_t pool_h, std::size_t pool_w)
    : ph_{pool_h}, pw_{pool_w} {
  if (ph_ == 0 || pw_ == 0) throw util::ConfigError{"MaxPool2D: zero pool size"};
}

const Tensor& MaxPool2D::forward(const Tensor& x, bool /*training*/) {
  check_rank4(x, "MaxPool2D");
  const std::size_t n = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  const std::size_t oh = std::max<std::size_t>(1, h / ph_);
  const std::size_t ow = std::max<std::size_t>(1, w / pw_);
  // When the input is smaller than the pool, pool over what exists
  // (Keras would error; clamping keeps tiny feature maps usable and is
  // covered by tests).
  in_ = x;  // retained so backward can re-derive the winning taps
  out_.resize({n, oh, ow, c});
  const float* src = x.data();
  float* dst = out_.data();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < oh; ++i) {
      const std::size_t i0 = i * ph_;
      const std::size_t i1 = std::min(h, i0 + ph_);
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t j0 = j * pw_;
        const std::size_t j1 = std::min(w, j0 + pw_);
        float* orow = dst + ((b * oh + i) * ow + j) * c;
        std::memcpy(orow, src + ((b * h + i0) * w + j0) * c,
                    c * sizeof(float));
        for (std::size_t ii = i0; ii < i1; ++ii) {
          for (std::size_t jj = j0; jj < j1; ++jj) {
            if (ii == i0 && jj == j0) continue;
            const float* tap = src + ((b * h + ii) * w + jj) * c;
            for (std::size_t ch = 0; ch < c; ++ch) {
              orow[ch] = std::max(orow[ch], tap[ch]);
            }
          }
        }
      }
    }
  }
  return out_;
}

const Tensor& MaxPool2D::backward(const Tensor& grad_out) {
  if (!grad_out.same_shape(out_)) {
    throw util::DataError{"MaxPool2D::backward: grad shape mismatch"};
  }
  const std::size_t n = in_.dim(0), h = in_.dim(1), w = in_.dim(2),
                    c = in_.dim(3);
  const std::size_t oh = out_.dim(1), ow = out_.dim(2);
  gin_.resize(in_.shape());
  gin_.fill(0.0f);
  const float* src = in_.data();
  float* gi = gin_.data();
  claimed_.resize(c);
  std::uint32_t* claimed = claimed_.data();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < oh; ++i) {
      const std::size_t i0 = i * ph_;
      const std::size_t i1 = std::min(h, i0 + ph_);
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t j0 = j * pw_;
        const std::size_t j1 = std::min(w, j0 + pw_);
        const std::size_t oidx = ((b * oh + i) * ow + j) * c;
        const float* best = out_.data() + oidx;
        const float* go = grad_out.data() + oidx;
        // Route each channel to the first tap that achieved the max, in
        // the strict-greater argmax scan order (ii-major, then jj). The
        // taps are visited in that order with every channel at once, so
        // the inner loop is a branch-free, vectorizable select.
        std::fill(claimed, claimed + c, 0u);
        for (std::size_t ii = i0; ii < i1; ++ii) {
          for (std::size_t jj = j0; jj < j1; ++jj) {
            const std::size_t idx = ((b * h + ii) * w + jj) * c;
            const float* tap = src + idx;
            float* gtap = gi + idx;
            for (std::size_t ch = 0; ch < c; ++ch) {
              const std::uint32_t take =
                  static_cast<std::uint32_t>(tap[ch] == best[ch]) &
                  ~claimed[ch];
              const float gv = go[ch];
              gtap[ch] += take != 0 ? gv : 0.0f;
              claimed[ch] |= take;
            }
          }
        }
      }
    }
  }
  return gin_;
}

void MaxPool2D::release_scratch() { free_buffers(in_, out_, gin_, claimed_); }

// --------------------------------------------------------------- Dropout

Dropout::Dropout(double rate, std::uint64_t seed) : rate_{rate}, rng_{seed} {
  if (rate_ < 0.0 || rate_ >= 1.0) {
    throw util::ConfigError{"Dropout: rate must be in [0,1)"};
  }
}

const Tensor& Dropout::forward(const Tensor& x, bool training) {
  if (!training || rate_ == 0.0) {
    mask_.resize({});  // marks the identity pass for backward
    return x;
  }
  mask_.resize(x.shape());
  out_.resize(x.shape());
  const float scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool keep = !rng_.bernoulli(rate_);
    mask_[i] = keep ? scale : 0.0f;
    out_[i] = x[i] * mask_[i];
  }
  return out_;
}

const Tensor& Dropout::backward(const Tensor& grad_out) {
  if (mask_.size() == 0) return grad_out;  // was inference / rate 0
  gin_.resize(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    gin_[i] = grad_out[i] * mask_[i];
  }
  return gin_;
}

void Dropout::release_scratch() { free_buffers(mask_, out_, gin_); }

// -------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(std::size_t channels, double momentum, double epsilon)
    : channels_{channels}, momentum_{momentum}, eps_{epsilon} {
  if (channels_ == 0) throw util::ConfigError{"BatchNorm: channels == 0"};
  gamma_.value = Tensor{{channels_}};
  gamma_.grad = Tensor{{channels_}};
  beta_.value = Tensor{{channels_}};
  beta_.grad = Tensor{{channels_}};
  gamma_.value.fill(1.0f);
  running_mean_.assign(channels_, 0.0f);
  running_var_.assign(channels_, 1.0f);
}

const Tensor& BatchNorm::forward(const Tensor& x, bool training) {
  if (x.dim(x.rank() - 1) != channels_) {
    throw util::DataError{"BatchNorm: channel mismatch"};
  }
  const std::size_t groups = x.size() / channels_;
  out_.resize(x.shape());
  x_hat_.resize(x.shape());
  batch_mean_.assign(channels_, 0.0f);
  batch_inv_std_.assign(channels_, 0.0f);

  if (training) {
    mean_.assign(channels_, 0.0f);
    var_.assign(channels_, 0.0f);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t c = 0; c < channels_; ++c) {
        mean_[c] += x[g * channels_ + c];
      }
    }
    for (float& m : mean_) m /= static_cast<float>(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t c = 0; c < channels_; ++c) {
        const float d = x[g * channels_ + c] - mean_[c];
        var_[c] += d * d;
      }
    }
    for (float& v : var_) v /= static_cast<float>(groups);
    for (std::size_t c = 0; c < channels_; ++c) {
      running_mean_[c] = static_cast<float>(momentum_) * running_mean_[c] +
                         static_cast<float>(1.0 - momentum_) * mean_[c];
      running_var_[c] = static_cast<float>(momentum_) * running_var_[c] +
                        static_cast<float>(1.0 - momentum_) * var_[c];
    }
  } else {
    mean_.assign(running_mean_.begin(), running_mean_.end());
    var_.assign(running_var_.begin(), running_var_.end());
  }

  for (std::size_t c = 0; c < channels_; ++c) {
    batch_mean_[c] = mean_[c];
    batch_inv_std_[c] =
        1.0f / std::sqrt(var_[c] + static_cast<float>(eps_));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t i = g * channels_ + c;
      x_hat_[i] = (x[i] - batch_mean_[c]) * batch_inv_std_[c];
      out_[i] = gamma_.value[c] * x_hat_[i] + beta_.value[c];
    }
  }
  return out_;
}

const Tensor& BatchNorm::backward(const Tensor& grad_out) {
  const std::size_t groups = grad_out.size() / channels_;
  const float n = static_cast<float>(groups);
  gamma_.grad.fill(0.0f);
  beta_.grad.fill(0.0f);

  sum_g_.assign(channels_, 0.0f);
  sum_gx_.assign(channels_, 0.0f);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t i = g * channels_ + c;
      sum_g_[c] += grad_out[i];
      sum_gx_[c] += grad_out[i] * x_hat_[i];
    }
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    gamma_.grad[c] = sum_gx_[c];
    beta_.grad[c] = sum_g_[c];
  }

  gin_.resize(grad_out.shape());
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t i = g * channels_ + c;
      gin_[i] = gamma_.value[c] * batch_inv_std_[c] / n *
                (n * grad_out[i] - sum_g_[c] - x_hat_[i] * sum_gx_[c]);
    }
  }
  return gin_;
}

std::vector<Parameter*> BatchNorm::parameters() { return {&gamma_, &beta_}; }

void BatchNorm::release_scratch() {
  free_buffers(mean_, var_, sum_g_, sum_gx_, x_hat_, batch_mean_,
               batch_inv_std_, out_, gin_);
}

// ---------------------------------------------------------------- Flatten

const Tensor& Flatten::forward(const Tensor& x, bool /*training*/) {
  if (x.rank() == 0 || x.dim(0) == 0) {
    throw util::DataError{"Flatten: empty batch"};
  }
  in_shape_.assign(x.shape().begin(), x.shape().end());
  const std::size_t n = x.dim(0);
  out_ = x;  // copy-assign reuses capacity
  out_.resize({n, x.size() / n});  // same element count: pure reshape
  return out_;
}

const Tensor& Flatten::backward(const Tensor& grad_out) {
  gin_ = grad_out;
  gin_.resize(in_shape_);
  return gin_;
}

void Flatten::release_scratch() { free_buffers(in_shape_, out_, gin_); }

// ------------------------------------------------------------------ Dense

Dense::Dense(std::size_t in_dim, std::size_t out_dim, std::uint64_t seed)
    : in_d_{in_dim}, out_d_{out_dim} {
  if (in_d_ == 0 || out_d_ == 0) throw util::ConfigError{"Dense: zero dims"};
  weight_.value = Tensor{{in_d_, out_d_}};
  weight_.grad = Tensor{{in_d_, out_d_}};
  bias_.value = Tensor{{out_d_}};
  bias_.grad = Tensor{{out_d_}};
  util::Rng rng{seed};
  he_uniform_init(weight_.value, in_d_, rng);
}

const Tensor& Dense::forward(const Tensor& x, bool /*training*/) {
  if (x.rank() != 2 || x.dim(1) != in_d_) {
    throw util::DataError{"Dense: expected (N, in_dim) input"};
  }
  input_ = x;
  const std::size_t n = x.dim(0);
  out_.resize({n, out_d_});
  const float* bias = bias_.value.data();
  for (std::size_t b = 0; b < n; ++b) {
    std::memcpy(out_.data() + b * out_d_, bias, out_d_ * sizeof(float));
  }
  gemm(n, out_d_, in_d_, x.data(), weight_.value.data(), out_.data(),
       /*accumulate=*/true);
  return out_;
}

const Tensor& Dense::backward(const Tensor& grad_out) {
  const std::size_t n = input_.dim(0);
  bias_.grad.fill(0.0f);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t o = 0; o < out_d_; ++o) {
      bias_.grad[o] += grad_out.at2(b, o);
    }
  }
  // dW = Xᵀ · dOut ; dX = dOut · Wᵀ.
  gemm_at(in_d_, out_d_, n, input_.data(), grad_out.data(),
          weight_.grad.data(), /*accumulate=*/false);
  gin_.resize({n, in_d_});
  gemm_bt(n, in_d_, out_d_, grad_out.data(), weight_.value.data(), gin_.data(),
          /*accumulate=*/false);
  return gin_;
}

std::vector<Parameter*> Dense::parameters() { return {&weight_, &bias_}; }

void Dense::release_scratch() { free_buffers(input_, out_, gin_); }

}  // namespace emoleak::nn
