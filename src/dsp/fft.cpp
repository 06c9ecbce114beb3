#include "dsp/fft.h"

#include <cmath>
#include <list>
#include <memory>
#include <mutex>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"

namespace emoleak::dsp {

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

/// Complex multiply spelled out in real arithmetic: keeps the hot
/// butterflies free of the library's Annex-G (__muldc3) call.
inline Complex cmul(Complex a, Complex b) noexcept {
  return Complex{a.real() * b.real() - a.imag() * b.imag(),
                 a.real() * b.imag() + a.imag() * b.real()};
}

/// Staged twiddle table of a size-n plan (layout in fft.h). The last
/// stage, e^{∓2πik/n} for k in [0, n/2), comes from cos and sin; the
/// stage of half-width h gathers every (n/2h)-th of those values, the
/// same twiddles a single table read with stride n/2h would give.
std::vector<Complex> make_stages(std::size_t n, bool inverse) {
  const std::size_t half = n / 2;
  std::vector<Complex> w(n - 1);
  Complex* last = w.data() + (half - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < half; ++k) {
    const double angle = sign * kTau * static_cast<double>(k) / static_cast<double>(n);
    last[k] = Complex{std::cos(angle), std::sin(angle)};
  }
  for (std::size_t h = 1; h < half; h <<= 1) {
    const std::size_t stride = half / h;
    for (std::size_t k = 0; k < h; ++k) w[h - 1 + k] = last[k * stride];
  }
  return w;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_{n} {
  if (n <= 1) return;
  if (!is_pow2(n)) {
    throw util::DataError{"FftPlan: size must be a power of two"};
  }
  fwd_ = make_stages(n, false);
  inv_ = make_stages(n, true);
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
}

const FftPlan& FftPlan::get(std::size_t n) {
  // Plans live in unique_ptr slots so the vector can grow without
  // moving any plan: references returned earlier stay valid even when
  // later transforms (e.g. Bluestein's two internal sizes) extend the
  // cache. This replaces the old thread_local TwiddleTable vector whose
  // reallocation dangled previously returned references.
  thread_local std::vector<std::unique_ptr<FftPlan>> cache;
  for (const std::unique_ptr<FftPlan>& p : cache) {
    if (p->size() == n) return *p;
  }
  cache.push_back(std::make_unique<FftPlan>(n));
  return *cache.back();
}

void FftPlan::transform(std::span<Complex> data,
                        const std::vector<Complex>& stages) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // std::complex<double> is an array of two doubles, real then
  // imaginary ([complex.numbers]), so the butterflies work on the
  // interleaved parts. Each runs the multiplies, adds and subtracts of
  // cmul followed by even ± odd, in the same order. `lo` and `hi` are
  // the disjoint halves of one block; __restrict says so and lets the
  // compiler vectorize the loop. Vector lanes run the same IEEE
  // operations, and the baseline x86-64 target has no FMA to fuse them.
  double* d = reinterpret_cast<double*>(data.data());
  for (std::size_t h = 1; h < n; h <<= 1) {
    const double* w = reinterpret_cast<const double*>(stages.data() + (h - 1));
    for (std::size_t start = 0; start < n; start += 2 * h) {
      double* __restrict lo = d + 2 * start;
      double* __restrict hi = lo + 2 * h;
      for (std::size_t k = 0; k < 2 * h; k += 2) {
        const double odd_re = hi[k] * w[k] - hi[k + 1] * w[k + 1];
        const double odd_im = hi[k] * w[k + 1] + hi[k + 1] * w[k];
        const double even_re = lo[k];
        const double even_im = lo[k + 1];
        lo[k] = even_re + odd_re;
        lo[k + 1] = even_im + odd_im;
        hi[k] = even_re - odd_re;
        hi[k + 1] = even_im - odd_im;
      }
    }
  }
}

void FftPlan::forward(std::span<Complex> data) const {
  if (n_ <= 1) return;
  if (data.size() != n_) throw util::DataError{"FftPlan::forward: size mismatch"};
  transform(data, fwd_);
}

void FftPlan::inverse(std::span<Complex> data) const {
  if (n_ <= 1) return;
  if (data.size() != n_) throw util::DataError{"FftPlan::inverse: size mismatch"};
  transform(data, inv_);
}

void FftPlan::rfft(std::span<const double> in, std::span<Complex> out,
                   util::Workspace& ws) const {
  if (in.size() != n_ || out.size() != n_ / 2 + 1) {
    throw util::DataError{"FftPlan::rfft: size mismatch"};
  }
  if (n_ == 0) {
    out[0] = Complex{};
    return;
  }
  if (n_ == 1) {
    out[0] = Complex{in[0], 0.0};
    return;
  }

  // Pack pairs of real samples into a half-length complex signal,
  // transform, then split even/odd spectra and recombine. The
  // recombination twiddles e^{-2πik/n} are exactly the last stage of
  // this plan's forward table; the sub-transform uses the cached
  // half-size plan.
  const std::size_t m = n_ / 2;
  const util::Workspace::Scope scope{ws};
  std::span<Complex> z = ws.take<Complex>(m);
  for (std::size_t j = 0; j < m; ++j) {
    z[j] = Complex{in[2 * j], in[2 * j + 1]};
  }
  FftPlan::get(m).forward(z);

  const Complex* w = last_stage(fwd_);
  out[0] = Complex{z[0].real() + z[0].imag(), 0.0};
  out[m] = Complex{z[0].real() - z[0].imag(), 0.0};
  for (std::size_t k = 1; k < m; ++k) {
    const Complex zk = z[k];
    const Complex zc = std::conj(z[m - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex diff = zk - zc;
    const Complex odd = Complex{0.5 * diff.imag(), -0.5 * diff.real()};  // -i/2 * diff
    out[k] = even + cmul(w[k], odd);
  }
}

void FftPlan::rfft_magnitude(std::span<const double> in, std::span<double> out,
                             util::Workspace& ws) const {
  if (out.size() != n_ / 2 + 1) {
    throw util::DataError{"FftPlan::rfft_magnitude: size mismatch"};
  }
  const util::Workspace::Scope scope{ws};
  std::span<Complex> half = ws.take<Complex>(n_ / 2 + 1);
  rfft(in, half, ws);
  for (std::size_t k = 0; k < half.size(); ++k) out[k] = std::abs(half[k]);
}

void FftPlan::irfft(std::span<const Complex> half, std::span<double> out,
                    util::Workspace& ws) const {
  if (half.size() != n_ / 2 + 1 || out.size() != n_) {
    throw util::DataError{"FftPlan::irfft: size mismatch"};
  }
  if (n_ == 0) return;
  if (n_ == 1) {
    out[0] = half[0].real();
    return;
  }

  // Invert the split/recombine, run a half-length inverse transform,
  // and unpack interleaved samples.
  const std::size_t m = n_ / 2;
  const util::Workspace::Scope scope{ws};
  std::span<Complex> z = ws.take<Complex>(m);
  const Complex* w = last_stage(inv_);
  for (std::size_t k = 0; k < m; ++k) {
    const Complex xk = half[k];
    const Complex xc = std::conj(half[m - k]);
    const Complex even = 0.5 * (xk + xc);
    const Complex odd = cmul(w[k], 0.5 * (xk - xc));
    z[k] = even + Complex{-odd.imag(), odd.real()};  // even + i*odd
  }
  FftPlan::get(m).inverse(z);
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t j = 0; j < m; ++j) {
    out[2 * j] = z[j].real() * scale;
    out[2 * j + 1] = z[j].imag() * scale;
  }
}

void fft_pow2(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (!is_pow2(n)) {
    throw util::DataError{"fft_pow2: size must be a power of two"};
  }
  const FftPlan& plan = FftPlan::get(n);
  if (inverse) {
    plan.inverse(data);
  } else {
    plan.forward(data);
  }
}

namespace {

/// Bluestein's algorithm expresses a length-n DFT as a circular
/// convolution of length m = next_pow2(2n-1). The chirp sequence and
/// the transformed convolution kernel depend only on n, so both are
/// planned once per size and shared by every thread. A plan is
/// immutable once built.
struct BluesteinPlan {
  std::size_t n = 0;
  std::size_t m = 0;
  std::vector<Complex> chirp;  ///< e^{-iπ k²/n}, forward sign
  std::vector<Complex> fft_b;  ///< forward FFT of the convolution kernel

  [[nodiscard]] std::size_t bytes() const noexcept {
    return (chirp.size() + fft_b.size()) * sizeof(Complex);
  }
};

std::shared_ptr<const BluesteinPlan> build_bluestein_plan(std::size_t n) {
  auto plan = std::make_shared<BluesteinPlan>();
  plan->n = n;
  plan->m = next_pow2(2 * n - 1);
  plan->chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the angle argument small for numerical accuracy.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle =
        -std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n);
    plan->chirp[k] = Complex{std::cos(angle), std::sin(angle)};
  }
  plan->fft_b.assign(plan->m, Complex{});
  plan->fft_b[0] = std::conj(plan->chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan->fft_b[k] = plan->fft_b[plan->m - k] = std::conj(plan->chirp[k]);
  }
  FftPlan::get(plan->m).forward(plan->fft_b);
  return plan;
}

/// The process's Bluestein plans, least recently used evicted once
/// their bytes exceed kBluesteinCacheBytes; the newest plan always
/// stays. Callers hold a shared_ptr, so evicting a plan another thread
/// is transforming with only drops the cache's reference to it.
class BluesteinCache {
 public:
  static BluesteinCache& instance() {
    static BluesteinCache cache;
    return cache;
  }

  std::shared_ptr<const BluesteinPlan> get(std::size_t n) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      if (auto hit = touch(n)) {
        hits_.add(1);
        return hit;
      }
    }
    // Build outside the lock: a plan depends only on n, so a plan
    // another thread inserted meanwhile has the same bits as this one.
    std::shared_ptr<const BluesteinPlan> plan = build_bluestein_plan(n);
    built_.add(1);
    const std::lock_guard<std::mutex> lock{mu_};
    if (auto raced = touch(n)) return raced;
    lru_.push_front(plan);
    index_.emplace(n, lru_.begin());
    bytes_ += plan->bytes();
    while (bytes_ > kBluesteinCacheBytes && lru_.size() > 1) {
      const std::shared_ptr<const BluesteinPlan>& old = lru_.back();
      bytes_ -= old->bytes();
      index_.erase(old->n);
      lru_.pop_back();
    }
    return plan;
  }

  BluesteinCacheSize size() {
    const std::lock_guard<std::mutex> lock{mu_};
    return {lru_.size(), bytes_};
  }

 private:
  /// The cached plan for n, moved to the front of the LRU order; null
  /// if n is not cached. Caller holds mu_.
  std::shared_ptr<const BluesteinPlan> touch(std::size_t n) {
    const auto it = index_.find(n);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }

  // Hit/miss tallies (relaxed fetch_add) so a live scrape shows churn.
  obs::Counter& built_ =
      obs::Registry::instance().counter("dsp.bluestein.plans_built");
  obs::Counter& hits_ =
      obs::Registry::instance().counter("dsp.bluestein.plan_hits");
  std::mutex mu_;
  std::list<std::shared_ptr<const BluesteinPlan>> lru_;  ///< most recent first
  std::unordered_map<std::size_t,
                     std::list<std::shared_ptr<const BluesteinPlan>>::iterator>
      index_;
  std::size_t bytes_ = 0;  ///< sum of bytes() over lru_
};

/// Forward DFT of arbitrary size via Bluestein. Writes in place.
void bluestein_forward(std::span<Complex> x, util::Workspace& ws) {
  const std::size_t n = x.size();
  // Held for the whole transform: another thread's eviction cannot
  // free it.
  const std::shared_ptr<const BluesteinPlan> held =
      BluesteinCache::instance().get(n);
  const BluesteinPlan& plan = *held;
  const util::Workspace::Scope scope{ws};
  std::span<Complex> a = ws.take<Complex>(plan.m);
  for (std::size_t k = 0; k < n; ++k) a[k] = cmul(x[k], plan.chirp[k]);
  for (std::size_t k = n; k < plan.m; ++k) a[k] = Complex{};
  const FftPlan& big = FftPlan::get(plan.m);
  big.forward(a);
  for (std::size_t k = 0; k < plan.m; ++k) a[k] = cmul(a[k], plan.fft_b[k]);
  big.inverse(a);
  const double scale = 1.0 / static_cast<double>(plan.m);
  for (std::size_t k = 0; k < n; ++k) x[k] = cmul(a[k] * scale, plan.chirp[k]);
}

}  // namespace

std::vector<Complex> fft(std::span<const Complex> input, bool inverse) {
  const std::size_t n = input.size();
  std::vector<Complex> out{input.begin(), input.end()};
  if (n <= 1) return out;
  if (is_pow2(n)) {
    fft_pow2(out, inverse);
    return out;
  }
  util::Workspace& ws = util::thread_workspace();
  if (!inverse) {
    bluestein_forward(out, ws);
    return out;
  }
  // Unscaled inverse via conjugation: IDFT(x) = conj(DFT(conj(x))).
  for (Complex& v : out) v = std::conj(v);
  bluestein_forward(out, ws);
  for (Complex& v : out) v = std::conj(v);
  return out;
}

std::vector<Complex> rfft(std::span<const double> input) {
  const std::size_t n = input.size();
  std::vector<Complex> half(n / 2 + 1);
  if (is_pow2(n)) {
    FftPlan::get(n).rfft(input, half, util::thread_workspace());
    return half;
  }
  if (n == 0) return half;  // single zero bin, matching the legacy shape
  // Odd / non-power-of-two sizes: complex Bluestein path, truncated to
  // the non-redundant half.
  std::vector<Complex> buffer(n);
  for (std::size_t i = 0; i < n; ++i) buffer[i] = Complex{input[i], 0.0};
  std::vector<Complex> full = fft(buffer, false);
  for (std::size_t i = 0; i < half.size(); ++i) half[i] = full[i];
  return half;
}

void rfft_magnitude_into(std::span<const double> input, std::span<double> out,
                         util::Workspace& ws) {
  const std::size_t n = input.size();
  if (out.size() != n / 2 + 1) {
    throw util::DataError{"rfft_magnitude_into: output must have n/2+1 bins"};
  }
  // Dispatch tally (relaxed fetch_add; resolved once per process) —
  // lets a live process report how much real-FFT work it has done.
  static obs::Counter& calls =
      obs::Registry::instance().counter("dsp.rfft.calls");
  calls.add(1);
  if (is_pow2(n)) {
    FftPlan::get(n).rfft_magnitude(input, out, ws);
    return;
  }
  if (n == 0) {
    out[0] = 0.0;
    return;
  }
  const util::Workspace::Scope scope{ws};
  std::span<Complex> z = ws.take<Complex>(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = Complex{input[i], 0.0};
  bluestein_forward(z, ws);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = std::abs(z[k]);
}

std::vector<double> rfft_magnitude(std::span<const double> input) {
  const std::size_t n = input.size();
  std::vector<double> mags(n / 2 + 1);
  if (is_pow2(n)) {
    FftPlan::get(n).rfft_magnitude(input, mags, util::thread_workspace());
    return mags;
  }
  const std::vector<Complex> half = rfft(input);
  for (std::size_t i = 0; i < half.size(); ++i) mags[i] = std::abs(half[i]);
  return mags;
}

std::vector<double> irfft(std::span<const Complex> half_spectrum, std::size_t n) {
  if (half_spectrum.size() != n / 2 + 1) {
    throw util::DataError{"irfft: half spectrum must have n/2+1 bins"};
  }
  std::vector<double> out(n);
  if (n == 0) return out;
  if (is_pow2(n)) {
    FftPlan::get(n).irfft(half_spectrum, out, util::thread_workspace());
    return out;
  }
  std::vector<Complex> full(n);
  for (std::size_t i = 0; i < half_spectrum.size(); ++i) full[i] = half_spectrum[i];
  for (std::size_t i = half_spectrum.size(); i < n; ++i) {
    full[i] = std::conj(full[n - i]);
  }
  std::vector<Complex> time = fft(full, true);
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = time[i].real() * scale;
  return out;
}

BluesteinCacheSize bluestein_plans_cached() {
  return BluesteinCache::instance().size();
}

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace emoleak::dsp
