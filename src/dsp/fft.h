// Fast Fourier transforms.
//
// Provides an iterative radix-2 Cooley-Tukey FFT for power-of-two sizes
// and Bluestein's chirp-z algorithm for arbitrary sizes, plus real-input
// helpers. These back the STFT/spectrogram generation and all
// frequency-domain feature extraction in the EmoLeak pipeline.
//
// All transforms execute against a plan built once per size.
// Power-of-two FftPlans (twiddle factors, the bit-reversal permutation)
// are cached per thread in stable storage, so references handed out
// stay valid no matter how many other sizes are planned later. Bluestein
// plans (the precomputed chirp and its kernel spectrum) are shared by
// the whole process: one cache, least recently used evicted once the
// plans exceed kBluesteinCacheBytes, each plan held by shared_ptr for
// the length of a transform so eviction never frees one in use.
// Plan-based real transforms (FftPlan::rfft and friends) draw scratch
// from a util::Workspace and perform zero heap allocations in steady
// state.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/workspace.h"

namespace emoleak::dsp {

using Complex = std::complex<double>;

/// An execution plan for power-of-two FFTs of one size: staged twiddle
/// tables for both directions and the bit-reversal permutation. The
/// last stage of each table doubles as the recombination twiddles that
/// let a length-n real transform run as a length-n/2 complex transform.
/// Plans are immutable after construction; obtain shared cached
/// instances via FftPlan::get().
class FftPlan {
 public:
  /// Builds a plan for size n (must be a power of two; n == 0 or 1 are
  /// accepted as trivial plans). Throws util::DataError otherwise.
  explicit FftPlan(std::size_t n);

  /// The per-thread cached plan for size n. The reference is stable
  /// for the thread's lifetime: later get() calls for other sizes
  /// never invalidate it (plans live in unique_ptr slots).
  [[nodiscard]] static const FftPlan& get(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward / unscaled inverse complex FFT of size() points.
  void forward(std::span<Complex> data) const;
  void inverse(std::span<Complex> data) const;

  /// Real-input FFT: size() real samples -> size()/2 + 1 bins, computed
  /// as a size()/2 complex FFT plus a split/recombine pass (half the
  /// butterfly work of the complex transform). Scratch comes from `ws`;
  /// zero heap allocations once the arena is warm.
  void rfft(std::span<const double> in, std::span<Complex> out,
            util::Workspace& ws) const;

  /// Magnitudes of rfft(): writes size()/2 + 1 values into `out`.
  void rfft_magnitude(std::span<const double> in, std::span<double> out,
                      util::Workspace& ws) const;

  /// Inverse of rfft(): size()/2 + 1 bins -> size() real samples
  /// (exact inverse, including the 1/n scale).
  void irfft(std::span<const Complex> half, std::span<double> out,
             util::Workspace& ws) const;

 private:
  void transform(std::span<Complex> data,
                 const std::vector<Complex>& stages) const;

  /// Twiddles of the last butterfly stage, e^{∓2πik/n} for k in
  /// [0, n/2): the recombination table of rfft / irfft.
  [[nodiscard]] const Complex* last_stage(
      const std::vector<Complex>& stages) const noexcept {
    return stages.data() + (n_ / 2 - 1);
  }

  // Staged twiddle tables, n-1 entries each: the stage of half-width h
  // keeps its h twiddles e^{∓iπk/h}, k in [0, h), contiguous at offset
  // h-1, so every butterfly reads its table with unit stride.
  std::size_t n_ = 0;
  std::vector<Complex> fwd_;           ///< forward sign, e^{-iπk/h}
  std::vector<Complex> inv_;           ///< inverse sign, e^{+iπk/h}
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversal permutation
};

/// In-place FFT of a power-of-two-sized buffer.
/// `inverse` computes the unscaled inverse transform; callers divide by
/// the length to invert exactly. Throws util::DataError if the size is
/// not a power of two (use `fft` for arbitrary sizes).
void fft_pow2(std::span<Complex> data, bool inverse = false);

/// FFT of arbitrary size. Power-of-two inputs dispatch to the cached
/// plan; other sizes use Bluestein's algorithm (chirp spectrum cached
/// process-wide per size). Returns the transformed sequence; input is
/// unmodified.
[[nodiscard]] std::vector<Complex> fft(std::span<const Complex> input,
                                       bool inverse = false);

/// Forward FFT of a real sequence. Returns the first n/2+1 bins
/// (the remainder is conjugate-symmetric). Power-of-two sizes run the
/// packed real transform; other sizes fall back to the complex path.
[[nodiscard]] std::vector<Complex> rfft(std::span<const double> input);

/// Magnitude of each bin of `rfft(input)`.
[[nodiscard]] std::vector<double> rfft_magnitude(std::span<const double> input);

/// Writes the n/2+1 magnitudes of `rfft(input)` into `out`, drawing all
/// scratch (including the Bluestein convolution for non-power-of-two
/// sizes) from `ws`: zero heap allocations once the arena is warm.
void rfft_magnitude_into(std::span<const double> input, std::span<double> out,
                         util::Workspace& ws);

/// Inverse of rfft: reconstructs a real sequence of length n from
/// n/2+1 half-spectrum bins.
[[nodiscard]] std::vector<double> irfft(std::span<const Complex> half_spectrum,
                                        std::size_t n);

/// Bytes of Bluestein (non-power-of-two) plans the process keeps;
/// planning past it evicts the least recently used, except the newest.
/// A plan takes (n + next_pow2(2n - 1)) × 16 bytes, ~42 KB at n ≈ 600;
/// the budget holds every region length a served fleet meets (a
/// `fleet_sparse` benchmark run ends holding 155 plans in 5.6 MiB).
inline constexpr std::size_t kBluesteinCacheBytes = std::size_t{8} << 20;

/// What the process-wide Bluestein cache holds: plan count and their
/// bytes (bytes <= kBluesteinCacheBytes unless one plan alone exceeds
/// it).
struct BluesteinCacheSize {
  std::size_t plans = 0;
  std::size_t bytes = 0;
};

/// The Bluestein cache's current contents (a test hook).
[[nodiscard]] BluesteinCacheSize bluestein_plans_cached();

/// Smallest power of two >= n (n must be >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// True if n is a nonzero power of two.
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace emoleak::dsp
