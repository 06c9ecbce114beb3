#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

// The GEMM entry points are cloned for wider vector ISAs and resolved
// once at load time (glibc ifunc). AVX2 is enabled without FMA, so
// multiplies and adds stay separate IEEE operations and every clone
// produces bit-identical results — the dispatch only changes speed,
// never numerics. TSan builds skip the clones: the ifunc resolver runs
// during relocation, before the TSan runtime is initialized, and
// crashes at startup. Since all clones are bit-identical, the TSan
// build still validates the exact same math.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__gnu_linux__) && !defined(__SANITIZE_THREAD__)
#define EMOLEAK_GEMM_CLONES __attribute__((target_clones("default", "avx2")))
#else
#define EMOLEAK_GEMM_CLONES
#endif

namespace emoleak::nn {

namespace {

// Block sizes tuned for the layer shapes in this repo (patch matrices
// of a few thousand rows, tens-to-hundreds of columns). A kKc x kNc
// panel of B stays in L2 while every row panel of A streams past it.
// Correctness and bitwise results do not depend on these values: the
// k loop always advances in ascending order for every output element.
constexpr std::size_t kNc = 256;
constexpr std::size_t kKc = 256;
// Register tile: kMr rows x two 8-float vectors. Twelve accumulators
// plus two B vectors and one broadcast fit the 16 AVX registers.
constexpr std::size_t kMr = 6;

// Eight floats as one GCC vector. In the AVX2 clone it is one ymm
// register; in the default clone GCC lowers it to two SSE halves with
// the same per-lane IEEE operations.
using Vec8 = float __attribute__((vector_size(32)));

/// C[0..MR) x [0..8*NV) += sum over p < kc of A(i, p) * B(p, .), where
/// A(i, p) = a[i * a_rs + p * a_cs] and B and C both have row stride
/// `ld`; with `zero`, the tile starts from
/// +0 instead of C. The tile stays in registers for the whole k panel,
/// so C is read and written once per panel; each lane still takes one
/// separate multiply and add per p, in order.
template <std::size_t MR, std::size_t NV>
[[gnu::always_inline]] inline void tile(bool zero, std::size_t kc,
                                        const float* a, std::size_t a_rs,
                                        std::size_t a_cs, const float* b,
                                        float* c, std::size_t ld) {
  Vec8 acc[MR][NV];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      if (zero) {
        acc[i][v] = Vec8{};
      } else {
        std::memcpy(&acc[i][v], c + i * ld + 8 * v, sizeof(Vec8));
      }
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    Vec8 bv[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], b + p * ld + 8 * v, sizeof(Vec8));
    }
    for (std::size_t i = 0; i < MR; ++i) {
      const float s = a[i * a_rs + p * a_cs];
      for (std::size_t v = 0; v < NV; ++v) acc[i][v] += s * bv[v];
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(c + i * ld + 8 * v, &acc[i][v], sizeof(Vec8));
    }
  }
}

/// One row panel (MR rows) across `nc` columns: 16-wide tiles, then an
/// 8-wide tile, then one column at a time for the last < 8.
template <std::size_t MR>
[[gnu::always_inline]] inline void row_panel(bool zero, std::size_t nc,
                                             std::size_t kc, const float* a,
                                             std::size_t a_rs, std::size_t a_cs,
                                             const float* b, float* c,
                                             std::size_t ld) {
  std::size_t j = 0;
  for (; j + 16 <= nc; j += 16) {
    tile<MR, 2>(zero, kc, a, a_rs, a_cs, b + j, c + j, ld);
  }
  if (j + 8 <= nc) {
    tile<MR, 1>(zero, kc, a, a_rs, a_cs, b + j, c + j, ld);
    j += 8;
  }
  for (; j < nc; ++j) {
    // One column, its MR elements as independent register chains.
    float acc[MR];
    for (std::size_t i = 0; i < MR; ++i) acc[i] = zero ? 0.0f : c[i * ld + j];
    for (std::size_t p = 0; p < kc; ++p) {
      const float bv = b[p * ld + j];
      for (std::size_t i = 0; i < MR; ++i) {
        acc[i] += a[i * a_rs + p * a_cs] * bv;
      }
    }
    for (std::size_t i = 0; i < MR; ++i) c[i * ld + j] = acc[i];
  }
}

/// C (m x n) (+)= A · B with A(i, p) = a[i * a_rs + p * a_cs] and B
/// row-major (k x n). Every entry point below is this loop nest.
[[gnu::always_inline]] inline void blocked_gemm(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    std::size_t a_rs, std::size_t a_cs, const float* b, float* c,
    bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    // Overwrite mode starts the first panel's tiles at +0, exactly the
    // value a zero-filled C would hand them, without a pass over C.
    const bool zero = pc == 0 && !accumulate;
    for (std::size_t jc = 0; jc < n; jc += kNc) {
      const std::size_t nc = std::min(kNc, n - jc);
      const float* bp = b + pc * n + jc;
      for (std::size_t i = 0; i < m; i += kMr) {
        const float* ap = a + i * a_rs + pc * a_cs;
        float* cp = c + i * n + jc;
        switch (std::min(kMr, m - i)) {
          case 6: row_panel<6>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
          case 5: row_panel<5>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
          case 4: row_panel<4>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
          case 3: row_panel<3>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
          case 2: row_panel<2>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
          default: row_panel<1>(zero, nc, kc, ap, a_rs, a_cs, bp, cp, n); break;
        }
      }
    }
  }
}

}  // namespace

EMOLEAK_GEMM_CLONES void gemm(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, const float* b, float* c,
                              bool accumulate) {
  blocked_gemm(m, n, k, a, k, 1, b, c, accumulate);
}

EMOLEAK_GEMM_CLONES void gemm_at(std::size_t m, std::size_t n, std::size_t k,
                                 const float* a, const float* b, float* c,
                                 bool accumulate) {
  // c[i][j] = sum_p a[p][i] * b[p][j]: A read down its columns.
  blocked_gemm(m, n, k, a, 1, m, b, c, accumulate);
}

EMOLEAK_GEMM_CLONES void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  // c[i][j] = dot(a_row_i, b_row_j): both operands are read along
  // contiguous rows. Each dot is one serial chain over p, so this stays
  // scalar; hot callers transpose B once and use gemm instead.
  if (m == 0 || n == 0) return;
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = accumulate ? crow[j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void im2col(const float* in, std::size_t h, std::size_t w, std::size_t c,
            std::size_t kh, std::size_t kw, std::size_t stride_h,
            std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
            std::size_t oh, std::size_t ow, float* col) {
  const std::size_t row_len = kh * kw * c;
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      float* dst = col + (i * ow + j) * row_len;
      for (std::size_t ki = 0; ki < kh; ++ki) {
        const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(i * stride_h + ki) -
                                  static_cast<std::ptrdiff_t>(pad_h);
        if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) {
          std::memset(dst, 0, kw * c * sizeof(float));
          dst += kw * c;
          continue;
        }
        const std::ptrdiff_t j0 = static_cast<std::ptrdiff_t>(j * stride_w) -
                                  static_cast<std::ptrdiff_t>(pad_w);
        if (stride_w == 1 && j0 >= 0 &&
            j0 + static_cast<std::ptrdiff_t>(kw) <=
                static_cast<std::ptrdiff_t>(w)) {
          // Fully in-bounds row of taps: one contiguous copy.
          std::memcpy(dst,
                      in + (static_cast<std::size_t>(ii) * w +
                            static_cast<std::size_t>(j0)) *
                               c,
                      kw * c * sizeof(float));
          dst += kw * c;
          continue;
        }
        for (std::size_t kj = 0; kj < kw; ++kj) {
          const std::ptrdiff_t jj =
              static_cast<std::ptrdiff_t>(j * stride_w + kj) -
              static_cast<std::ptrdiff_t>(pad_w);
          if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) {
            std::memset(dst, 0, c * sizeof(float));
          } else {
            std::memcpy(dst,
                        in + (static_cast<std::size_t>(ii) * w +
                              static_cast<std::size_t>(jj)) *
                                 c,
                        c * sizeof(float));
          }
          dst += c;
        }
      }
    }
  }
}

void im2col_tap(const float* in, std::size_t h, std::size_t w, std::size_t c,
                std::size_t ki, std::size_t kj, std::size_t stride_h,
                std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
                std::size_t oh, std::size_t ow, float* col) {
  for (std::size_t i = 0; i < oh; ++i) {
    const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(i * stride_h + ki) -
                              static_cast<std::ptrdiff_t>(pad_h);
    float* dst = col + i * ow * c;
    if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) {
      std::memset(dst, 0, ow * c * sizeof(float));
      continue;
    }
    const float* src = in + static_cast<std::size_t>(ii) * w * c;
    for (std::size_t j = 0; j < ow; ++j, dst += c) {
      const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(j * stride_w + kj) -
                                static_cast<std::ptrdiff_t>(pad_w);
      if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) {
        std::memset(dst, 0, c * sizeof(float));
      } else {
        std::memcpy(dst, src + static_cast<std::size_t>(jj) * c,
                    c * sizeof(float));
      }
    }
  }
}

void col2im(const float* col, std::size_t h, std::size_t w, std::size_t c,
            std::size_t kh, std::size_t kw, std::size_t stride_h,
            std::size_t stride_w, std::size_t pad_h, std::size_t pad_w,
            std::size_t oh, std::size_t ow, float* in) {
  const std::size_t row_len = kh * kw * c;
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      const float* src = col + (i * ow + j) * row_len;
      for (std::size_t ki = 0; ki < kh; ++ki) {
        const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(i * stride_h + ki) -
                                  static_cast<std::ptrdiff_t>(pad_h);
        if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) {
          src += kw * c;
          continue;
        }
        for (std::size_t kj = 0; kj < kw; ++kj) {
          const std::ptrdiff_t jj =
              static_cast<std::ptrdiff_t>(j * stride_w + kj) -
              static_cast<std::ptrdiff_t>(pad_w);
          if (jj >= 0 && jj < static_cast<std::ptrdiff_t>(w)) {
            float* dst = in + (static_cast<std::size_t>(ii) * w +
                               static_cast<std::size_t>(jj)) *
                                  c;
            for (std::size_t ch = 0; ch < c; ++ch) dst[ch] += src[ch];
          }
          src += c;
        }
      }
    }
  }
}

}  // namespace emoleak::nn
