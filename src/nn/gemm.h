// Dense float kernels backing the CNN layers: a cache-blocked,
// register-tiled GEMM (three storage variants) and im2col/col2im
// lowering for convolution. The naive convolution the lowering is
// checked against lives in tests/test_layers.cpp.
//
// Determinism contract: every output element is the result of separate
// IEEE steps c <- c + a*b (a multiply, then an add; never fused), with
// p ascending from 0 to k-1, starting from the existing C value
// (`accumulate`) or from +0. That holds independent of the blocking
// parameters, the register tile and the ISA clone the loader picks.
// Results are therefore bit-identical across runs, machines and thread
// counts: when a layer fans a batch out over the pool (Conv2D, see
// Layer::set_parallelism), each output element is still produced by
// exactly one task with the same sequence, so the split only changes
// speed, never numerics.
#pragma once

#include <cstddef>

namespace emoleak::nn {

/// C (m x n) = A (m x k) · B (k x n), all row-major.
/// With `accumulate`, adds into C instead of overwriting it.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          const float* b, float* c, bool accumulate = false);

/// C (m x n) = Aᵀ · B where A is stored (k x m) row-major.
/// Used for weight gradients: dW = colᵀ · dOut.
void gemm_at(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate = false);

/// C (m x n) = A · Bᵀ where B is stored (n x k) row-major.
/// Used for input gradients: dCol = dOut · Wᵀ.
void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate = false);

/// Lowers one NHWC image (h x w x c) to a patch matrix: row r = output
/// position (r / ow, r % ow), columns ordered (kh, kw, c) — matching the
/// [KH, KW, Cin, Cout] weight layout, so convolution is col · W.
/// Out-of-bounds taps (zero padding) produce zeros. `col` must hold
/// (oh*ow) x (kh*kw*c) floats.
void im2col(const float* in, std::size_t h, std::size_t w, std::size_t c,
            std::size_t kh, std::size_t kw, std::size_t stride_h,
            std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
            std::size_t oh, std::size_t ow, float* col);

/// The `c` columns of im2col's patch matrix that belong to kernel tap
/// (ki, kj): row r = output position, zeros where the tap falls in the
/// padding. `col` must hold (oh*ow) x c floats. A weight gradient split
/// by tap reads these instead of the whole patch matrix.
void im2col_tap(const float* in, std::size_t h, std::size_t w, std::size_t c,
                std::size_t ki, std::size_t kj, std::size_t stride_h,
                std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
                std::size_t oh, std::size_t ow, float* col);

/// Adjoint of im2col: scatter-adds the patch matrix back into the image
/// (which the caller must have zeroed). Overlapping taps accumulate.
void col2im(const float* col, std::size_t h, std::size_t w, std::size_t c,
            std::size_t kh, std::size_t kw, std::size_t stride_h,
            std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
            std::size_t oh, std::size_t ow, float* in);

}  // namespace emoleak::nn
