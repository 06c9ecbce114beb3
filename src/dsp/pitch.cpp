#include "dsp/pitch.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace emoleak::dsp {

void PitchConfig::validate() const {
  if (min_hz <= 0.0 || max_hz <= min_hz) {
    throw util::ConfigError{"PitchConfig: need 0 < min_hz < max_hz"};
  }
  if (frame_s <= 0.0 || hop_s <= 0.0) {
    throw util::ConfigError{"PitchConfig: frame/hop must be > 0"};
  }
  if (voicing_threshold < 0.0 || voicing_threshold > 1.0) {
    throw util::ConfigError{"PitchConfig: voicing threshold in [0,1]"};
  }
}

namespace {

/// Direct O(lags·N) normalized autocorrelation.
/// Writes corr[lag] for lag in [min_lag, max_lag]; returns the peak.
double correlate_direct(std::span<const double> x, std::size_t min_lag,
                        std::size_t max_lag, std::span<double> corr) {
  double best_value = 0.0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    double acc = 0.0;
    double e1 = 0.0;
    double e2 = 0.0;
    const std::size_t n = x.size() - lag;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * x[i + lag];
      e1 += x[i] * x[i];
      e2 += x[i + lag] * x[i + lag];
    }
    const double denom = std::sqrt(e1 * e2);
    if (denom <= 0.0) continue;
    corr[lag] = acc / denom;
    best_value = std::max(best_value, corr[lag]);
  }
  return best_value;
}

/// The direct numerator with the serial dependence broken: four
/// independent partial sums per lag (reassociated, so the compiler can
/// vectorize and the adds pipeline instead of serializing on the
/// accumulator's latency) and energy denominators from prefix sums of
/// x² instead of two more running sums per lag. Agrees with
/// correlate_direct to ~1e-13 relative — not bitwise.
double correlate_fast(std::span<const double> x, std::size_t min_lag,
                      std::size_t max_lag, std::span<double> corr,
                      util::Workspace& ws) {
  const std::size_t n = x.size();
  // prefix[k] = sum of x[i]² for i < k, so e1(lag) = prefix[n - lag]
  // and e2(lag) = prefix[n] - prefix[lag] exactly as the direct sum
  // windows them.
  const std::span<double> prefix = ws.take<double>(n + 1);
  prefix[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + x[i] * x[i];

  double best_value = 0.0;
  const double* base = x.data();
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const std::size_t m = n - lag;
    const double* a = base;
    const double* b = base + lag;
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      s0 += a[i] * b[i];
      s1 += a[i + 1] * b[i + 1];
      s2 += a[i + 2] * b[i + 2];
      s3 += a[i + 3] * b[i + 3];
    }
    double acc = (s0 + s1) + (s2 + s3);
    for (; i < m; ++i) acc += a[i] * b[i];
    const double denom = std::sqrt(prefix[m] * (prefix[n] - prefix[lag]));
    if (denom <= 0.0) continue;
    corr[lag] = acc / denom;
    best_value = std::max(best_value, corr[lag]);
  }
  return best_value;
}

/// Wiener–Khinchin: the autocorrelation numerator is the inverse
/// transform of the power spectrum of the zero-padded frame; the
/// per-lag energy denominators are exact prefix sums of x². One
/// rfft/irfft pair replaces the O(lags·N) direct sum.
double correlate_fft(std::span<const double> x, std::size_t min_lag,
                     std::size_t max_lag, std::span<double> corr,
                     util::Workspace& ws) {
  const std::size_t n = x.size();
  // Zero padding to at least n + max_lag makes the circular
  // autocorrelation equal the linear one for every lag we read.
  const std::size_t nfft = next_pow2(n + max_lag);
  const FftPlan& plan = FftPlan::get(nfft);

  const std::span<double> padded = ws.take<double>(nfft);
  std::copy(x.begin(), x.end(), padded.begin());
  std::fill(padded.begin() + static_cast<std::ptrdiff_t>(n), padded.end(), 0.0);

  const std::span<Complex> spectrum = ws.take<Complex>(nfft / 2 + 1);
  plan.rfft(padded, spectrum, ws);
  for (Complex& bin : spectrum) bin = Complex{std::norm(bin), 0.0};

  const std::span<double> autocorr = ws.take<double>(nfft);
  plan.irfft(spectrum, autocorr, ws);

  // Prefix sums of squares: prefix[k] = sum of x[i]² for i < k, so
  // e1(lag) = prefix[n-lag] and e2(lag) = prefix[n] - prefix[lag] are
  // the exact windowed energies the direct sum computes.
  const std::span<double> prefix = ws.take<double>(n + 1);
  prefix[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + x[i] * x[i];

  double best_value = 0.0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double e1 = prefix[n - lag];
    const double e2 = prefix[n] - prefix[lag];
    const double denom = std::sqrt(e1 * e2);
    if (denom <= 0.0) continue;
    corr[lag] = autocorr[lag] / denom;
    best_value = std::max(best_value, corr[lag]);
  }
  return best_value;
}

}  // namespace

namespace detail {

// Both cutoffs were calibrated against this codebase's kernels. Below
// kDirectCutoff multiply-adds (every accelerometer-rate frame: tens of
// lags over a few hundred samples) the exact sum is fastest and keeps
// bitwise-identical seed-corpus behavior. Above it the unrolled kernel
// retires ~an order of magnitude more multiply-adds per cycle than the
// latency-bound exact sum; one rfft/irfft pair costs roughly
// 24·nfft·log2(nfft) of those equivalent operations, so only lag grids
// past that crossover (very low min_hz at audio rates) go to the FFT.
namespace {
constexpr std::size_t kDirectCutoff = 1u << 14;
}  // namespace

Correlator correlator_for(std::size_t n, std::size_t min_lag,
                          std::size_t max_lag) noexcept {
  const std::size_t direct_ops = (max_lag - min_lag + 1) * n;
  if (direct_ops < kDirectCutoff) return Correlator::kDirect;
  const std::size_t nfft = next_pow2(n + max_lag);
  std::size_t log2_nfft = 0;
  while ((std::size_t{1} << log2_nfft) < nfft) ++log2_nfft;
  return direct_ops > 24 * nfft * log2_nfft ? Correlator::kFft
                                            : Correlator::kFast;
}

std::optional<double> estimate_pitch_validated(std::span<const double> frame,
                                               double sample_rate_hz,
                                               const PitchConfig& config,
                                               util::Workspace& ws) {
  if (sample_rate_hz <= 0.0) {
    throw util::ConfigError{"estimate_pitch: sample rate <= 0"};
  }
  const auto min_lag =
      static_cast<std::size_t>(sample_rate_hz / config.max_hz);
  const auto max_lag =
      static_cast<std::size_t>(sample_rate_hz / config.min_hz);
  if (frame.size() < 2 * max_lag || min_lag < 1) return std::nullopt;

  const util::Workspace::Scope scope{ws};

  // Remove DC; compute energy.
  const std::span<double> x = ws.take<double>(frame.size());
  std::copy(frame.begin(), frame.end(), x.begin());
  double mean = 0.0;
  for (const double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double energy = 0.0;
  for (double& v : x) {
    v -= mean;
    energy += v * v;
  }
  if (energy <= 1e-18) return std::nullopt;

  // Normalized autocorrelation over the lag range.
  const std::span<double> corr = ws.take<double>(max_lag + 1);
  std::fill(corr.begin(), corr.end(), 0.0);
  const Correlator kind = correlator_for(x.size(), min_lag, max_lag);
  // Per-frame dispatch tallies: which correlator the crossover picked.
  // Answers "is the FFT path actually winning frames?" from a live
  // process instead of an offline benchmark.
  {
    static obs::Counter& direct =
        obs::Registry::instance().counter("dsp.pitch.direct");
    static obs::Counter& fast =
        obs::Registry::instance().counter("dsp.pitch.fast");
    static obs::Counter& fft =
        obs::Registry::instance().counter("dsp.pitch.fft");
    (kind == Correlator::kFft    ? fft
     : kind == Correlator::kFast ? fast
                                 : direct)
        .add(1);
  }
  double best_value =
      kind == Correlator::kFft    ? correlate_fft(x, min_lag, max_lag, corr, ws)
      : kind == Correlator::kFast ? correlate_fast(x, min_lag, max_lag, corr, ws)
                                  : correlate_direct(x, min_lag, max_lag, corr);
  if (best_value < config.voicing_threshold) return std::nullopt;

  // Octave-error guard: a periodic signal peaks at every multiple of
  // the true period, so take the *smallest* lag that is a local maximum
  // nearly as high as the global one.
  std::size_t best_lag = 0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double left = lag > min_lag ? corr[lag - 1] : -1.0;
    const double right = lag < max_lag ? corr[lag + 1] : -1.0;
    const bool local_max = corr[lag] >= left && corr[lag] >= right;
    if (local_max && corr[lag] >= 0.90 * best_value) {
      best_lag = lag;
      best_value = corr[lag];
      break;
    }
  }
  if (best_lag == 0) return std::nullopt;

  // Parabolic interpolation around the peak for sub-sample precision.
  // The neighbours are inside [min_lag, max_lag], so corr[] already
  // holds them — no recomputation.
  double refined = static_cast<double>(best_lag);
  if (best_lag > min_lag && best_lag < max_lag) {
    const double l = corr[best_lag - 1];
    const double c = best_value;
    const double r = corr[best_lag + 1];
    const double denom = l - 2.0 * c + r;
    if (std::abs(denom) > 1e-12) {
      refined += 0.5 * (l - r) / denom;
    }
  }
  return sample_rate_hz / refined;
}

}  // namespace detail

std::optional<double> estimate_pitch(std::span<const double> frame,
                                     double sample_rate_hz,
                                     const PitchConfig& config) {
  config.validate();
  return detail::estimate_pitch_validated(frame, sample_rate_hz, config,
                                          util::thread_workspace());
}

std::vector<PitchFrame> track_pitch(std::span<const double> signal,
                                    double sample_rate_hz,
                                    const PitchConfig& config) {
  config.validate();
  const auto frame_n = static_cast<std::size_t>(config.frame_s * sample_rate_hz);
  const auto hop_n =
      std::max<std::size_t>(1, static_cast<std::size_t>(config.hop_s * sample_rate_hz));
  std::vector<PitchFrame> track;
  if (signal.size() < frame_n) return track;
  // One arena for the whole track: the first frame sizes it, every
  // later frame's scratch is pure pointer arithmetic.
  util::Workspace& ws = util::thread_workspace();
  for (std::size_t start = 0; start + frame_n <= signal.size();
       start += hop_n) {
    PitchFrame frame;
    frame.time_s =
        (static_cast<double>(start) + frame_n / 2.0) / sample_rate_hz;
    frame.f0_hz = detail::estimate_pitch_validated(
        signal.subspan(start, frame_n), sample_rate_hz, config, ws);
    track.push_back(frame);
  }
  return track;
}

std::optional<std::pair<double, double>> pitch_statistics(
    const std::vector<PitchFrame>& track) {
  std::vector<double> voiced;
  for (const PitchFrame& f : track) {
    if (f.f0_hz) voiced.push_back(*f.f0_hz);
  }
  if (voiced.empty()) return std::nullopt;
  double mean = 0.0;
  for (const double v : voiced) mean += v;
  mean /= static_cast<double>(voiced.size());
  double var = 0.0;
  for (const double v : voiced) var += (v - mean) * (v - mean);
  var /= static_cast<double>(voiced.size());
  return std::pair{mean, std::sqrt(var)};
}

}  // namespace emoleak::dsp
