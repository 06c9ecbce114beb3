// Gradient checks and forward-shape tests for all layers (nn/layers.h).
//
// Every layer's backward pass is verified against central finite
// differences both for input gradients and parameter gradients.
#include "nn/layers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using emoleak::nn::BatchNorm;
using emoleak::nn::Conv2D;
using emoleak::nn::Dense;
using emoleak::nn::Dropout;
using emoleak::nn::Flatten;
using emoleak::nn::Layer;
using emoleak::nn::MaxPool2D;
using emoleak::nn::Parameter;
using emoleak::nn::ReLU;
using emoleak::nn::Tensor;
using emoleak::util::Rng;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  Rng rng{seed};
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// Scalar loss used for gradient checking: sum of weighted outputs.
/// The weights make the loss sensitive to every output element.
double weighted_sum(const Tensor& y) {
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    s += (0.3 + 0.1 * static_cast<double>(i % 7)) * y[i];
  }
  return s;
}

Tensor weighted_sum_grad(const Tensor& y) {
  Tensor g{y.shape()};
  for (std::size_t i = 0; i < y.size(); ++i) {
    g[i] = static_cast<float>(0.3 + 0.1 * static_cast<double>(i % 7));
  }
  return g;
}

/// Checks dLoss/dInput against central differences.
void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  const Tensor y = layer.forward(x, /*training=*/false);
  const Tensor analytic = layer.backward(weighted_sum_grad(y));
  ASSERT_TRUE(analytic.same_shape(x));
  const float eps = 1e-2f;
  // Check a deterministic subset of positions (full check is O(n^2)).
  Rng rng{123};
  for (int check = 0; check < 24; ++check) {
    const std::size_t i = rng.uniform_int(x.size());
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    const double fp = weighted_sum(layer.forward(xp, false));
    const double fm = weighted_sum(layer.forward(xm, false));
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "input index " << i;
  }
  // Restore the layer's forward cache for the caller.
  (void)layer.forward(x, false);
}

/// Checks dLoss/dParam against central differences.
void check_param_gradients(Layer& layer, const Tensor& x, double tol = 2e-2) {
  const Tensor y = layer.forward(x, /*training=*/true);
  (void)layer.backward(weighted_sum_grad(y));
  const float eps = 1e-2f;
  Rng rng{321};
  for (Parameter* param : layer.parameters()) {
    // Snapshot analytic gradients (backward overwrote them).
    const Tensor analytic = param->grad;
    for (int check = 0; check < 12; ++check) {
      const std::size_t i = rng.uniform_int(param->value.size());
      const float original = param->value[i];
      param->value[i] = original + eps;
      const double fp = weighted_sum(layer.forward(x, true));
      param->value[i] = original - eps;
      const double fm = weighted_sum(layer.forward(x, true));
      param->value[i] = original;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
          << "param index " << i;
    }
  }
}

TEST(Conv2DTest, SamePaddingPreservesSpatialDims) {
  Conv2D conv{3, 5, 3, 3, /*same=*/true, 1};
  const Tensor x = random_tensor({2, 8, 8, 3}, 1);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 8u);
  EXPECT_EQ(y.dim(2), 8u);
  EXPECT_EQ(y.dim(3), 5u);
}

TEST(Conv2DTest, ValidPaddingShrinks) {
  Conv2D conv{1, 2, 3, 3, /*same=*/false, 2};
  const Tensor x = random_tensor({1, 8, 8, 1}, 2);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(1), 6u);
  EXPECT_EQ(y.dim(2), 6u);
}

TEST(Conv2DTest, OneByOneKernelActsPerPixel) {
  Conv2D conv{1, 1, 1, 1, true, 3};
  // Set weight to 2, bias to 1 manually.
  conv.parameters()[0]->value[0] = 2.0f;
  conv.parameters()[1]->value[0] = 1.0f;
  Tensor x{{1, 2, 2, 1}, {1.0f, 2.0f, 3.0f, 4.0f}};
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
}

TEST(Conv2DTest, ChannelMismatchThrows) {
  Conv2D conv{3, 4, 3, 3, true, 4};
  EXPECT_THROW((void)conv.forward(random_tensor({1, 4, 4, 2}, 3), false),
               emoleak::util::DataError);
}

TEST(Conv2DTest, InputGradientMatchesFiniteDifference) {
  Conv2D conv{2, 3, 3, 3, true, 5};
  check_input_gradient(conv, random_tensor({2, 5, 5, 2}, 4));
}

TEST(Conv2DTest, ParamGradientsMatchFiniteDifference) {
  Conv2D conv{2, 3, 3, 3, true, 6};
  check_param_gradients(conv, random_tensor({2, 5, 5, 2}, 5));
}

TEST(Conv2DTest, OneDimensionalKernelGradients) {
  // The time-frequency CNN uses (1 x 3) kernels on (N, 1, D, C).
  Conv2D conv{2, 4, 1, 3, true, 7};
  check_input_gradient(conv, random_tensor({2, 1, 12, 2}, 6));
  check_param_gradients(conv, random_tensor({2, 1, 12, 2}, 7));
}

TEST(ReLUTest, ClampsNegatives) {
  ReLU relu;
  Tensor x{{1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f}};
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(ReLUTest, GradientMasksNegatives) {
  ReLU relu;
  Tensor x{{1, 4}, {-1.0f, 0.5f, 2.0f, -3.0f}};
  (void)relu.forward(x, true);
  Tensor g{{1, 4}, {1.0f, 1.0f, 1.0f, 1.0f}};
  const Tensor gi = relu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
  EXPECT_FLOAT_EQ(gi[3], 0.0f);
}

TEST(ReLUTest, BackwardShapeMismatchThrows) {
  ReLU relu;
  (void)relu.forward(random_tensor({1, 4}, 8), true);
  EXPECT_THROW((void)relu.backward(random_tensor({1, 5}, 9)),
               emoleak::util::DataError);
}

TEST(MaxPool2DTest, PoolsMaxima) {
  MaxPool2D pool{2, 2};
  Tensor x{{1, 2, 2, 1}, {1.0f, 5.0f, 3.0f, 2.0f}};
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2DTest, GradientRoutesToArgmax) {
  MaxPool2D pool{2, 2};
  Tensor x{{1, 2, 2, 1}, {1.0f, 5.0f, 3.0f, 2.0f}};
  (void)pool.forward(x, true);
  Tensor g{{1, 1, 1, 1}, {7.0f}};
  const Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 7.0f);
  EXPECT_FLOAT_EQ(gi[2], 0.0f);
}

TEST(MaxPool2DTest, TiedMaximaRouteToFirstTapPerChannel) {
  // Two channels: channel 0 ties at taps 1 and 3, channel 1 at taps 0
  // and 2. Each routes to its first tied tap in (row, col) scan order.
  MaxPool2D pool{2, 2};
  Tensor x{{1, 2, 2, 2}, {1.0f, 4.0f, 5.0f, 0.0f, 2.0f, 4.0f, 5.0f, 3.0f}};
  (void)pool.forward(x, true);
  Tensor g{{1, 1, 1, 2}, {7.0f, 9.0f}};
  const Tensor gi = pool.backward(g);
  const std::vector<float> want = {0.0f, 9.0f, 7.0f, 0.0f,
                                   0.0f, 0.0f, 0.0f, 0.0f};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(gi[i], want[i]) << "i=" << i;
  }
}

TEST(MaxPool2DTest, InputSmallerThanPoolClampedToOne) {
  MaxPool2D pool{1, 8};
  const Tensor x = random_tensor({1, 1, 3, 2}, 10);
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.dim(2), 1u);
}

TEST(MaxPool2DTest, InputGradientMatchesFiniteDifference) {
  MaxPool2D pool{2, 2};
  check_input_gradient(pool, random_tensor({2, 6, 6, 3}, 11));
}

TEST(MaxPool2DTest, ZeroPoolThrows) {
  EXPECT_THROW(MaxPool2D(0, 2), emoleak::util::ConfigError);
}

TEST(DropoutTest, IdentityAtInference) {
  Dropout drop{0.5, 1};
  const Tensor x = random_tensor({4, 10}, 12);
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(DropoutTest, DropsApproximatelyRateFraction) {
  Dropout drop{0.3, 2};
  Tensor x{{1, 10000}};
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / 10000.0, 0.3, 0.02);
}

TEST(DropoutTest, KeptValuesScaledUp) {
  Dropout drop{0.5, 3};
  Tensor x{{1, 100}};
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_TRUE(y[i] == 0.0f || std::abs(y[i] - 2.0f) < 1e-6);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop{0.5, 4};
  Tensor x{{1, 100}};
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  Tensor g{{1, 100}};
  g.fill(1.0f);
  const Tensor gi = drop.backward(g);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(gi[i], y[i]);  // same mask + scale
  }
}

TEST(DropoutTest, InvalidRateThrows) {
  EXPECT_THROW(Dropout(1.0, 1), emoleak::util::ConfigError);
  EXPECT_THROW(Dropout(-0.1, 1), emoleak::util::ConfigError);
}

TEST(BatchNormTest, NormalizesPerChannel) {
  BatchNorm bn{3};
  const Tensor x = random_tensor({8, 4, 4, 3}, 13);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  const std::size_t groups = y.size() / 3;
  for (std::size_t c = 0; c < 3; ++c) {
    double mean = 0.0;
    for (std::size_t g = 0; g < groups; ++g) mean += y[g * 3 + c];
    mean /= static_cast<double>(groups);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    double var = 0.0;
    for (std::size_t g = 0; g < groups; ++g) {
      var += (y[g * 3 + c] - mean) * (y[g * 3 + c] - mean);
    }
    var /= static_cast<double>(groups);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  BatchNorm bn{2};
  // Train on data with mean 5 so running stats move toward it.
  Tensor x{{64, 2}};
  Rng rng{14};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(5.0 + rng.normal());
  }
  for (int it = 0; it < 50; ++it) (void)bn.forward(x, true);
  // At inference, an input of 5 should map near 0.
  Tensor probe{{1, 2}, {5.0f, 5.0f}};
  const Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(BatchNormTest, InputGradientMatchesFiniteDifference) {
  // Finite-difference check in training mode (batch statistics make
  // the gradient non-trivial).
  BatchNorm bn{2};
  Tensor x = random_tensor({6, 2}, 15);
  const Tensor y = bn.forward(x, true);
  const Tensor analytic = bn.backward(weighted_sum_grad(y));
  const float eps = 1e-2f;
  Rng rng{16};
  for (int check = 0; check < 16; ++check) {
    const std::size_t i = rng.uniform_int(x.size());
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    BatchNorm bnp{2};
    BatchNorm bnm{2};
    const double fp = weighted_sum(bnp.forward(xp, true));
    const double fm = weighted_sum(bnm.forward(xm, true));
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 0.05 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(BatchNormTest, ParamGradientsMatchFiniteDifference) {
  BatchNorm bn{3};
  check_param_gradients(bn, random_tensor({8, 3}, 17), 0.03);
}

TEST(BatchNormTest, ChannelMismatchThrows) {
  BatchNorm bn{3};
  EXPECT_THROW((void)bn.forward(random_tensor({2, 4}, 18), true),
               emoleak::util::DataError);
}

TEST(FlattenTest, FlattensAndRestores) {
  Flatten flat;
  const Tensor x = random_tensor({2, 3, 4, 5}, 19);
  const Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 60u);
  const Tensor back = flat.backward(y);
  EXPECT_TRUE(back.same_shape(x));
}

TEST(FlattenTest, EmptyBatchThrows) {
  // The row width is size / batch: a zero batch used to divide by zero.
  Flatten flat;
  EXPECT_THROW((void)flat.forward(Tensor{{0, 3, 4, 5}}, false),
               emoleak::util::DataError);
}

TEST(DenseTest, ComputesAffineMap) {
  Dense dense{2, 1, 20};
  dense.parameters()[0]->value[0] = 2.0f;  // w[0][0]
  dense.parameters()[0]->value[1] = -1.0f; // w[1][0]
  dense.parameters()[1]->value[0] = 0.5f;  // bias
  Tensor x{{1, 2}, {3.0f, 4.0f}};
  const Tensor y = dense.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f * 2.0f + 4.0f * -1.0f + 0.5f);
}

TEST(DenseTest, WrongInputShapeThrows) {
  Dense dense{4, 2, 21};
  EXPECT_THROW((void)dense.forward(random_tensor({1, 5}, 20), false),
               emoleak::util::DataError);
}

TEST(DenseTest, InputGradientMatchesFiniteDifference) {
  Dense dense{6, 4, 22};
  check_input_gradient(dense, random_tensor({3, 6}, 21));
}

TEST(DenseTest, ParamGradientsMatchFiniteDifference) {
  Dense dense{6, 4, 23};
  check_param_gradients(dense, random_tensor({3, 6}, 22));
}

TEST(DenseTest, ZeroDimsThrow) {
  EXPECT_THROW(Dense(0, 3, 1), emoleak::util::ConfigError);
}

// ------------------------------------------------- im2col + GEMM parity
//
// The Conv2D layer lowers to im2col + blocked GEMM (nn/gemm.h); these
// tests pin it against the retained naive direct convolution across
// kernel/channel/padding/stride combinations, forward and backward.

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// ----------------------------------------------------- GEMM determinism
//
// nn/gemm.h promises an exact per-element sequence: separate IEEE steps
// c <- c + a*b, p ascending, from C (accumulate) or +0. These tests hold
// every kernel to it bit for bit against plain loops.

/// Storage of the GEMM operands: C = A·B, Aᵀ·B (A stored k x m) or
/// A·Bᵀ (B stored n x k).
enum class Layout { kPlain, kAt, kBt };

std::vector<float> reference_gemm(Layout layout, std::size_t m, std::size_t n,
                                  std::size_t k, const std::vector<float>& a,
                                  const std::vector<float>& b,
                                  std::vector<float> c, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = layout == Layout::kAt ? a[p * m + i] : a[i * k + p];
        const float bv = layout == Layout::kBt ? b[j * k + p] : b[p * n + j];
        const float prod = av * bv;
        acc = acc + prod;
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

void run_gemm(Layout layout, std::size_t m, std::size_t n, std::size_t k,
              const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>& c, bool accumulate) {
  namespace nn = emoleak::nn;
  switch (layout) {
    case Layout::kPlain:
      nn::gemm(m, n, k, a.data(), b.data(), c.data(), accumulate);
      break;
    case Layout::kAt:
      nn::gemm_at(m, n, k, a.data(), b.data(), c.data(), accumulate);
      break;
    case Layout::kBt:
      nn::gemm_bt(m, n, k, a.data(), b.data(), c.data(), accumulate);
      break;
  }
}

bool bitwise_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Sizes straddle the 6-row register tile, the 16- and 8-column tiles
// and their scalar tail, the 256-deep k panel and the 256-wide n panel.
constexpr std::size_t kGemmDims[][3] = {
    {1, 1, 1},    {3, 5, 7},     {6, 16, 256},  {7, 17, 257}, {5, 9, 65},
    {13, 25, 255}, {12, 24, 513}, {7, 300, 70},  {17, 13, 129}, {64, 32, 9},
    {33, 257, 3}, {11, 8, 1}};

void expect_layout_matches_reference(Layout layout, bool accumulate) {
  for (const auto& [m, n, k] : kGemmDims) {
    const std::vector<float> a = random_vec(m * k, m * 1000 + k);
    const std::vector<float> b = random_vec(k * n, n * 1000 + k);
    const std::vector<float> base = random_vec(m * n, m * n + 7);
    const std::vector<float> want =
        reference_gemm(layout, m, n, k, a, b, base, accumulate);
    std::vector<float> got = base;
    run_gemm(layout, m, n, k, a, b, got, accumulate);
    ASSERT_TRUE(bitwise_equal(got, want))
        << "layout=" << static_cast<int>(layout) << " accumulate="
        << accumulate << " m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(GemmTest, MatchesNaiveAcrossAwkwardSizes) {
  expect_layout_matches_reference(Layout::kPlain, /*accumulate=*/false);
}

TEST(GemmTest, TransposedVariantsMatchExplicitTranspose) {
  expect_layout_matches_reference(Layout::kAt, /*accumulate=*/false);
  expect_layout_matches_reference(Layout::kBt, /*accumulate=*/false);
  // Transposing an operand by hand and calling gemm gives the same bits:
  // all three kernels run one sequence per element.
  for (const auto& [m, n, k] : kGemmDims) {
    const std::vector<float> a_t = random_vec(k * m, m + k);  // (k x m)
    const std::vector<float> b_t = random_vec(n * k, n + k);  // (n x k)
    std::vector<float> a(m * k), b(k * n);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t i = 0; i < m; ++i) a[i * k + p] = a_t[p * m + i];
      for (std::size_t j = 0; j < n; ++j) b[p * n + j] = b_t[j * k + p];
    }
    std::vector<float> plain(m * n), at(m * n), bt(m * n);
    run_gemm(Layout::kPlain, m, n, k, a, b, plain, false);
    run_gemm(Layout::kAt, m, n, k, a_t, b, at, false);
    run_gemm(Layout::kBt, m, n, k, a, b_t, bt, false);
    ASSERT_TRUE(bitwise_equal(at, plain)) << "gemm_at m=" << m << " k=" << k;
    ASSERT_TRUE(bitwise_equal(bt, plain)) << "gemm_bt n=" << n << " k=" << k;
  }
}

TEST(GemmTest, AccumulateAddsOntoExistingValues) {
  expect_layout_matches_reference(Layout::kPlain, /*accumulate=*/true);
  expect_layout_matches_reference(Layout::kAt, /*accumulate=*/true);
  expect_layout_matches_reference(Layout::kBt, /*accumulate=*/true);
}

/// Output extent of a convolution axis: floor((in + 2*pad - k)/stride)+1.
/// Returns 0 when the (padded) input is smaller than the kernel.
std::size_t conv_out_dim(std::size_t in, std::size_t kernel, std::size_t stride,
                         std::size_t pad) noexcept {
  const std::size_t padded = in + 2 * pad;
  if (padded < kernel || stride == 0) return 0;
  return (padded - kernel) / stride + 1;
}

/// Naive direct convolution over an NHWC batch, the reference for the
/// im2col+GEMM path. Weight layout [KH, KW, Cin, Cout]; `y` must hold
/// n*oh*ow*cout floats.
void conv2d_naive_forward(const float* x, std::size_t n, std::size_t h,
                          std::size_t w, std::size_t cin, const float* weight,
                          const float* bias, std::size_t kh, std::size_t kw,
                          std::size_t stride_h, std::size_t stride_w,
                          std::size_t pad_h, std::size_t pad_w, std::size_t oh,
                          std::size_t ow, std::size_t cout, float* y) {
  for (std::size_t b = 0; b < n; ++b) {
    const float* xb = x + b * h * w * cin;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float* out = y + ((b * oh + i) * ow + j) * cout;
        for (std::size_t oc = 0; oc < cout; ++oc) {
          out[oc] = bias != nullptr ? bias[oc] : 0.0f;
        }
        for (std::size_t ki = 0; ki < kh; ++ki) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(i * stride_h + ki) -
              static_cast<std::ptrdiff_t>(pad_h);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t kj = 0; kj < kw; ++kj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(j * stride_w + kj) -
                static_cast<std::ptrdiff_t>(pad_w);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) continue;
            const float* in = xb + (static_cast<std::size_t>(ii) * w +
                                    static_cast<std::size_t>(jj)) *
                                       cin;
            const float* wk = weight + (ki * kw + kj) * cin * cout;
            for (std::size_t ic = 0; ic < cin; ++ic) {
              const float xv = in[ic];
              const float* wrow = wk + ic * cout;
              for (std::size_t oc = 0; oc < cout; ++oc) out[oc] += xv * wrow[oc];
            }
          }
        }
      }
    }
  }
}

/// Naive convolution backward: writes dX into `gx` (n*h*w*cin, zeroed
/// here), accumulates dW into `gw` and db into `gb` (caller zeroes).
void conv2d_naive_backward(const float* x, const float* gout, std::size_t n,
                           std::size_t h, std::size_t w, std::size_t cin,
                           const float* weight, std::size_t kh, std::size_t kw,
                           std::size_t stride_h, std::size_t stride_w,
                           std::size_t pad_h, std::size_t pad_w, std::size_t oh,
                           std::size_t ow, std::size_t cout, float* gx,
                           float* gw, float* gb) {
  std::fill(gx, gx + n * h * w * cin, 0.0f);
  for (std::size_t b = 0; b < n; ++b) {
    const float* xb = x + b * h * w * cin;
    float* gxb = gx + b * h * w * cin;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float* g = gout + ((b * oh + i) * ow + j) * cout;
        for (std::size_t oc = 0; oc < cout; ++oc) gb[oc] += g[oc];
        for (std::size_t ki = 0; ki < kh; ++ki) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(i * stride_h + ki) -
              static_cast<std::ptrdiff_t>(pad_h);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t kj = 0; kj < kw; ++kj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(j * stride_w + kj) -
                static_cast<std::ptrdiff_t>(pad_w);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) continue;
            const std::size_t off = (static_cast<std::size_t>(ii) * w +
                                     static_cast<std::size_t>(jj)) *
                                    cin;
            const float* in = xb + off;
            float* gin = gxb + off;
            const std::size_t base = (ki * kw + kj) * cin * cout;
            for (std::size_t ic = 0; ic < cin; ++ic) {
              const float xv = in[ic];
              const float* wrow = weight + base + ic * cout;
              float* gwrow = gw + base + ic * cout;
              float acc = 0.0f;
              for (std::size_t oc = 0; oc < cout; ++oc) {
                const float gv = g[oc];
                gwrow[oc] += xv * gv;
                acc += wrow[oc] * gv;
              }
              gin[ic] += acc;
            }
          }
        }
      }
    }
  }
}

/// Runs forward + backward through both the im2col/GEMM pipeline and
/// the naive reference at arbitrary stride/padding and compares.
void expect_lowered_conv_matches_naive(std::size_t n, std::size_t h,
                                       std::size_t w, std::size_t cin,
                                       std::size_t cout, std::size_t kh,
                                       std::size_t kw, std::size_t sh,
                                       std::size_t sw, std::size_t ph,
                                       std::size_t pw, std::uint64_t seed) {
  namespace nn = emoleak::nn;
  const std::size_t oh = conv_out_dim(h, kh, sh, ph);
  const std::size_t ow = conv_out_dim(w, kw, sw, pw);
  ASSERT_GT(oh, 0u);
  ASSERT_GT(ow, 0u);
  const std::vector<float> x = random_vec(n * h * w * cin, seed);
  const std::vector<float> wt = random_vec(kh * kw * cin * cout, seed + 1);
  const std::vector<float> bias = random_vec(cout, seed + 2);
  const std::vector<float> gout = random_vec(n * oh * ow * cout, seed + 3);

  // Naive reference.
  std::vector<float> y_ref(n * oh * ow * cout);
  conv2d_naive_forward(x.data(), n, h, w, cin, wt.data(), bias.data(), kh,
                       kw, sh, sw, ph, pw, oh, ow, cout, y_ref.data());
  std::vector<float> gx_ref(x.size());
  std::vector<float> gw_ref(wt.size(), 0.0f);
  std::vector<float> gb_ref(cout, 0.0f);
  conv2d_naive_backward(x.data(), gout.data(), n, h, w, cin, wt.data(), kh,
                        kw, sh, sw, ph, pw, oh, ow, cout, gx_ref.data(),
                        gw_ref.data(), gb_ref.data());

  // Lowered pipeline: im2col -> GEMM (forward), GEMMs + col2im (backward).
  const std::size_t rows = oh * ow;
  const std::size_t kcols = kh * kw * cin;
  std::vector<float> col(rows * kcols), dcol(rows * kcols), tcol(rows * cin);
  std::vector<float> y(n * oh * ow * cout);
  std::vector<float> gx(x.size(), 0.0f);
  std::vector<float> gw(wt.size(), 0.0f);
  std::vector<float> gb(cout, 0.0f);
  for (std::size_t b = 0; b < n; ++b) {
    const float* xb = x.data() + b * h * w * cin;
    nn::im2col(xb, h, w, cin, kh, kw, sh, sw, ph, pw, oh, ow, col.data());
    // Each tap's column block equals those columns of the patch matrix.
    for (std::size_t tap = 0; tap < kh * kw; ++tap) {
      nn::im2col_tap(xb, h, w, cin, tap / kw, tap % kw, sh, sw, ph, pw, oh, ow,
                     tcol.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::memcmp(tcol.data() + r * cin,
                              col.data() + r * kcols + tap * cin,
                              cin * sizeof(float)),
                  0)
            << "tap=" << tap << " r=" << r;
      }
    }
    float* yb = y.data() + b * rows * cout;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t oc = 0; oc < cout; ++oc) yb[r * cout + oc] = bias[oc];
    }
    nn::gemm(rows, cout, kcols, col.data(), wt.data(), yb, true);

    const float* g = gout.data() + b * rows * cout;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t oc = 0; oc < cout; ++oc) gb[oc] += g[r * cout + oc];
    }
    nn::gemm_at(kcols, cout, rows, col.data(), g, gw.data(), true);
    nn::gemm_bt(rows, kcols, cout, g, wt.data(), dcol.data(), false);
    nn::col2im(dcol.data(), h, w, cin, kh, kw, sh, sw, ph, pw, oh, ow,
               gx.data() + b * h * w * cin);
  }

  const auto expect_close = [](const std::vector<float>& got,
                               const std::vector<float>& want,
                               const char* what) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-4f * (1.0f + std::abs(want[i])))
          << what << " i=" << i;
    }
  };
  expect_close(y, y_ref, "forward");
  expect_close(gx, gx_ref, "grad_input");
  expect_close(gw, gw_ref, "grad_weight");
  expect_close(gb, gb_ref, "grad_bias");
}

TEST(ConvLoweringTest, StridePaddingChannelSweep) {
  // {n, h, w, cin, cout, kh, kw, sh, sw, ph, pw}
  const std::size_t cases[][11] = {
      {1, 6, 6, 1, 1, 3, 3, 1, 1, 0, 0},   // minimal valid conv
      {2, 8, 8, 3, 5, 3, 3, 1, 1, 1, 1},   // 'same'-style odd kernel
      {1, 9, 7, 2, 4, 3, 3, 2, 2, 1, 1},   // stride 2 with padding
      {2, 10, 10, 4, 3, 5, 5, 2, 3, 2, 2}, // anisotropic stride, big kernel
      {1, 1, 12, 2, 4, 1, 3, 1, 2, 0, 1},  // (1 x 3) time-frequency shape
      {3, 5, 5, 1, 8, 2, 2, 1, 1, 0, 0},   // even kernel, valid
      {1, 4, 4, 6, 2, 4, 4, 4, 4, 0, 0},   // kernel == input tile, stride = k
  };
  for (const auto& c : cases) {
    expect_lowered_conv_matches_naive(c[0], c[1], c[2], c[3], c[4], c[5], c[6],
                                      c[7], c[8], c[9], c[10],
                                      /*seed=*/c[1] * 100 + c[5]);
  }
}

TEST(ConvLoweringTest, LayerMatchesNaiveReference) {
  // End-to-end: the Conv2D layer itself against the naive kernels, both
  // padding modes, forward and backward.
  for (const bool same : {true, false}) {
    Conv2D conv{3, 5, 3, 3, same, 42};
    const Tensor x = random_tensor({2, 7, 6, 3}, 77);
    const Tensor y = conv.forward(x, false);
    const std::size_t oh = y.dim(1), ow = y.dim(2);
    const std::size_t pad = same ? 1 : 0;
    std::vector<float> y_ref(y.size());
    conv2d_naive_forward(x.data(), 2, 7, 6, 3,
                         conv.parameters()[0]->value.data(),
                         conv.parameters()[1]->value.data(), 3, 3, 1, 1,
                         pad, pad, oh, ow, 5, y_ref.data());
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-4f * (1.0f + std::abs(y_ref[i])))
          << "same=" << same << " i=" << i;
    }

    const Tensor g = random_tensor(y.shape(), 78);
    const Tensor gx = conv.backward(g);
    std::vector<float> gx_ref(x.size());
    std::vector<float> gw_ref(conv.parameters()[0]->value.size(), 0.0f);
    std::vector<float> gb_ref(5, 0.0f);
    conv2d_naive_backward(x.data(), g.data(), 2, 7, 6, 3,
                          conv.parameters()[0]->value.data(), 3, 3, 1, 1,
                          pad, pad, oh, ow, 5, gx_ref.data(),
                          gw_ref.data(), gb_ref.data());
    for (std::size_t i = 0; i < gx.size(); ++i) {
      ASSERT_NEAR(gx[i], gx_ref[i], 1e-4f * (1.0f + std::abs(gx_ref[i])));
    }
    for (std::size_t i = 0; i < gw_ref.size(); ++i) {
      ASSERT_NEAR(conv.parameters()[0]->grad[i], gw_ref[i],
                  1e-3f * (1.0f + std::abs(gw_ref[i])));
    }
    for (std::size_t i = 0; i < gb_ref.size(); ++i) {
      ASSERT_NEAR(conv.parameters()[1]->grad[i], gb_ref[i],
                  1e-3f * (1.0f + std::abs(gb_ref[i])));
    }
  }
}

// ------------------------------------------- parallel training parity
//
// Conv2D fans training forward and backward out over the pool: images
// for the output and dX, kernel taps for dW. The result must not depend
// on the split: the same bits at any thread count, and the same bits
// as a serial per-image pass that runs each GEMM as plain loops in the
// contract's order.

struct ConvGrads {
  std::vector<float> y, gx, gw, gb;
};

ConvGrads serial_conv_reference(const Tensor& x, const Tensor& g,
                                const std::vector<float>& wt,
                                const std::vector<float>& bias, std::size_t kh,
                                std::size_t kw, bool same) {
  namespace nn = emoleak::nn;
  const std::size_t n = x.dim(0), h = x.dim(1), w = x.dim(2), cin = x.dim(3);
  const std::size_t oh = g.dim(1), ow = g.dim(2), cout = g.dim(3);
  const std::size_t ph = same ? (kh - 1) / 2 : 0, pw = same ? (kw - 1) / 2 : 0;
  const std::size_t rows = oh * ow, kcols = kh * kw * cin;
  ConvGrads ref{std::vector<float>(n * rows * cout),
                std::vector<float>(x.size(), 0.0f),
                std::vector<float>(kcols * cout, 0.0f),
                std::vector<float>(cout, 0.0f)};
  std::vector<float> col(rows * kcols), dcol(rows * kcols);
  for (std::size_t b = 0; b < n; ++b) {
    nn::im2col(&x.at4(b, 0, 0, 0), h, w, cin, kh, kw, 1, 1, ph, pw, oh, ow,
               col.data());
    const float* gb = g.data() + b * rows * cout;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t oc = 0; oc < cout; ++oc) {
        float y = bias[oc];
        for (std::size_t t = 0; t < kcols; ++t) {
          y = y + col[r * kcols + t] * wt[t * cout + oc];
        }
        ref.y[(b * rows + r) * cout + oc] = y;
        ref.gb[oc] = ref.gb[oc] + gb[r * cout + oc];
      }
      for (std::size_t t = 0; t < kcols; ++t) {
        float d = 0.0f;
        for (std::size_t oc = 0; oc < cout; ++oc) {
          d = d + gb[r * cout + oc] * wt[t * cout + oc];
          ref.gw[t * cout + oc] =
              ref.gw[t * cout + oc] + col[r * kcols + t] * gb[r * cout + oc];
        }
        dcol[r * kcols + t] = d;
      }
    }
    nn::col2im(dcol.data(), h, w, cin, kh, kw, 1, 1, ph, pw, oh, ow,
               ref.gx.data() + b * h * w * cin);
  }
  return ref;
}

TEST(ConvTrainingParityTest, BitIdenticalAtAnyThreadCountAndToSerialReference) {
  // {n, h, w, cin, cout, kh, kw, same}
  const std::size_t cases[][8] = {
      {5, 9, 7, 3, 20, 3, 3, 1},  // 'same' 3x3, cout straddles the tile
      {4, 1, 12, 8, 16, 1, 3, 1}, // time-frequency (1 x 3)
      {6, 8, 8, 1, 32, 1, 1, 1},  // the spectrogram net's 1x1 first layer
      {3, 7, 6, 3, 5, 3, 3, 0},   // 'valid', narrow cout
      // The spectrogram net's second conv: three images fill a task's
      // ~1 MiB patch slab, so a task's block runs in several slabs.
      {8, 16, 16, 32, 32, 3, 3, 1},
  };
  for (const auto& c : cases) {
    const std::size_t n = c[0], h = c[1], w = c[2], cin = c[3], cout = c[4],
                      kh = c[5], kw = c[6];
    const bool same = c[7] == 1;
    const Tensor x = random_tensor({n, h, w, cin}, 300 + cout);
    std::vector<ConvGrads> runs;
    for (const std::size_t threads : {1, 2, 8}) {
      Conv2D conv{cin, cout, kh, kw, same, 77};
      conv.set_parallelism(emoleak::util::Parallelism{.threads = threads});
      const Tensor y = conv.forward(x, /*training=*/true);
      const Tensor g = random_tensor(y.shape(), 400 + cout);
      const Tensor gx = conv.backward(g);
      const std::vector<Parameter*> params = conv.parameters();
      const auto vec = [](const Tensor& t) {
        return std::vector<float>(t.data(), t.data() + t.size());
      };
      runs.push_back({vec(y), vec(gx), vec(params[0]->grad),
                      vec(params[1]->grad)});
      if (threads == 1) {
        const ConvGrads ref =
            serial_conv_reference(x, g, vec(params[0]->value),
                                  vec(params[1]->value), kh, kw, same);
        EXPECT_TRUE(bitwise_equal(runs.back().y, ref.y)) << "cout=" << cout;
        EXPECT_TRUE(bitwise_equal(runs.back().gx, ref.gx)) << "cout=" << cout;
        EXPECT_TRUE(bitwise_equal(runs.back().gw, ref.gw)) << "cout=" << cout;
        EXPECT_TRUE(bitwise_equal(runs.back().gb, ref.gb)) << "cout=" << cout;
      }
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_TRUE(bitwise_equal(runs[r].y, runs[0].y)) << "run " << r;
      EXPECT_TRUE(bitwise_equal(runs[r].gx, runs[0].gx)) << "run " << r;
      EXPECT_TRUE(bitwise_equal(runs[r].gw, runs[0].gw)) << "run " << r;
      EXPECT_TRUE(bitwise_equal(runs[r].gb, runs[0].gb)) << "run " << r;
    }
  }
}

// ------------------------------------------------------ scratch release
//
// release_scratch() frees what a layer keeps between calls. A layer
// that ran forward and backward at batch 32 and then released must
// compute the next pass bit for bit like a twin that never released:
// outputs, input gradients and parameter gradients.

struct Pass {
  std::vector<float> y, gx;
  std::vector<std::vector<float>> grads;
};

Pass forward_backward(Layer& layer, const Tensor& x) {
  const auto vec = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.size());
  };
  Pass pass;
  const Tensor& y = layer.forward(x, /*training=*/true);
  pass.y = vec(y);
  pass.gx = vec(layer.backward(weighted_sum_grad(y)));
  for (const Parameter* p : layer.parameters()) pass.grads.push_back(vec(p->grad));
  return pass;
}

void expect_same_pass(const Pass& got, const Pass& want, const std::string& who) {
  EXPECT_TRUE(bitwise_equal(got.y, want.y)) << who;
  EXPECT_TRUE(bitwise_equal(got.gx, want.gx)) << who;
  ASSERT_EQ(got.grads.size(), want.grads.size()) << who;
  for (std::size_t i = 0; i < got.grads.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(got.grads[i], want.grads[i])) << who;
  }
}

TEST(ScratchReleaseTest, Conv2DFreesItsWorkspaceAndKeepsBits) {
  for (const std::size_t threads : {1u, 2u}) {
    Conv2D kept{4, 8, 3, 3, true, 97};
    Conv2D released{4, 8, 3, 3, true, 97};
    kept.set_parallelism(emoleak::util::Parallelism{.threads = threads});
    released.set_parallelism(emoleak::util::Parallelism{.threads = threads});
    const Tensor x = random_tensor({32, 8, 8, 4}, 98);
    (void)forward_backward(kept, x);
    (void)forward_backward(released, x);
    ASSERT_GT(released.workspace().capacity_bytes(), 0u);
    released.release_scratch();
    EXPECT_EQ(released.workspace().capacity_bytes(), 0u);
    const Tensor next = random_tensor({32, 8, 8, 4}, 99);
    expect_same_pass(forward_backward(released, next),
                     forward_backward(kept, next),
                     "threads=" + std::to_string(threads));
  }
}

TEST(ScratchReleaseTest, EveryLayerKeepsBitsAfterRelease) {
  struct Case {
    std::function<std::unique_ptr<Layer>()> make;
    std::vector<std::size_t> shape;
  };
  const Case cases[] = {
      {[] { return std::make_unique<ReLU>(); }, {32, 4, 4, 3}},
      {[] { return std::make_unique<MaxPool2D>(2, 2); }, {32, 4, 4, 3}},
      {[] { return std::make_unique<Dropout>(0.3, 5); }, {32, 4, 4, 3}},
      {[] { return std::make_unique<BatchNorm>(3); }, {32, 4, 4, 3}},
      {[] { return std::make_unique<Flatten>(); }, {32, 4, 4, 3}},
      {[] { return std::make_unique<Dense>(12, 5, 6); }, {32, 12}},
  };
  for (const Case& c : cases) {
    const std::unique_ptr<Layer> kept = c.make();
    const std::unique_ptr<Layer> released = c.make();
    const Tensor x = random_tensor(c.shape, 100);
    (void)forward_backward(*kept, x);
    (void)forward_backward(*released, x);
    released->release_scratch();
    const Tensor next = random_tensor(c.shape, 101);
    expect_same_pass(forward_backward(*released, next),
                     forward_backward(*kept, next), kept->name());
  }
}

// -------------------------------------------------- allocation contracts

TEST(AllocationTest, BatchNormForwardIsAllocationFreeWhenWarm) {
  // Regression: BatchNorm::forward used to build mean/var std::vectors
  // on every call; the statistics now live in the layer.
  BatchNorm bn{8};
  const Tensor x = random_tensor({4, 3, 3, 8}, 90);
  const Tensor g = random_tensor({4, 3, 3, 8}, 91);
  for (int i = 0; i < 2; ++i) {  // warm up both modes + backward
    (void)bn.forward(x, true);
    (void)bn.backward(g);
    (void)bn.forward(x, false);
  }
  const std::size_t warm = emoleak::nn::tensor_alloc_count();
  for (int i = 0; i < 10; ++i) {
    (void)bn.forward(x, true);
    (void)bn.backward(g);
    (void)bn.forward(x, false);
  }
  EXPECT_EQ(emoleak::nn::tensor_alloc_count(), warm);
}

TEST(AllocationTest, Conv2DSteadyStateIsAllocationFree) {
  Conv2D conv{2, 4, 3, 3, true, 92};
  const Tensor x = random_tensor({2, 6, 6, 2}, 93);
  const Tensor g = random_tensor({2, 6, 6, 4}, 94);
  for (int i = 0; i < 2; ++i) {
    (void)conv.forward(x, true);
    (void)conv.backward(g);
  }
  const std::size_t warm_tensors = emoleak::nn::tensor_alloc_count();
  const std::size_t warm_ws = conv.workspace().grow_count();
  for (int i = 0; i < 10; ++i) {
    (void)conv.forward(x, true);
    (void)conv.backward(g);
  }
  EXPECT_EQ(emoleak::nn::tensor_alloc_count(), warm_tensors);
  EXPECT_EQ(conv.workspace().grow_count(), warm_ws);
}

TEST(AllocationTest, PoolReluDenseSteadyStateIsAllocationFree) {
  MaxPool2D pool{2, 2};
  ReLU relu;
  Dense dense{16, 5, 95};  // (4/2)*(4/2)*4 flattened features
  Flatten flat;
  const Tensor x = random_tensor({3, 4, 4, 4}, 96);
  const auto run = [&] {
    const Tensor& a = pool.forward(x, true);
    const Tensor& b = relu.forward(a, true);
    const Tensor& c = flat.forward(b, true);
    const Tensor& d = dense.forward(c, true);
    const Tensor& gd = dense.backward(d);
    const Tensor& gc = flat.backward(gd);
    const Tensor& gb = relu.backward(gc);
    (void)pool.backward(gb);
  };
  run();
  run();
  const std::size_t warm = emoleak::nn::tensor_alloc_count();
  for (int i = 0; i < 10; ++i) run();
  EXPECT_EQ(emoleak::nn::tensor_alloc_count(), warm);
}

}  // namespace
