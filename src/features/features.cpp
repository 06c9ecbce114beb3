#include "features/features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dsp/fft.h"
#include "dsp/stats.h"
#include "util/error.h"

namespace emoleak::features {

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = {
      // time domain
      "Min", "Max", "Mean", "StdDev", "Variance", "Range", "CV", "Skewness",
      "Kurtosis", "Quantile25", "Quantile50", "MeanCrossingRate",
      // frequency domain
      "Energy", "Entropy", "FrequencyRatio", "IrregularityK", "IrregularityJ",
      "Sharpness", "Smoothness", "SpecCentroid", "SpecStdDev", "SpecCrest",
      "SpecSkewness", "SpecKurt"};
  return names;
}

std::string schema_signature() {
  std::string sig = "features-v1/" + std::to_string(kFeatureCount);
  for (const std::string& name : feature_names()) {
    sig += '/';
    sig += name;
  }
  return sig;
}

namespace {

// The lower index dsp::quantile_sorted interpolates from.
std::size_t quantile_index(std::size_t n, double q) {
  return static_cast<std::size_t>(q * static_cast<double>(n - 1));
}

// dsp::quantile_sorted(sorted(v), q) without sorting: places the
// order statistic `idx` (quantile_index(v.size(), q)) by nth_element
// and takes its upper neighbour as the minimum of what lies above it.
// Every element of v[0, from) must be no greater than those at and
// after `from`, so `idx` may be selected within v[from, n) — or, when
// idx < from, be already in place. The two neighbours are the values a
// sort puts there up to the sign of a zero, and the interpolation
// a + frac * (b - a) maps every mix of +-0 to +0, so the bits agree.
double quantile_by_selection(std::vector<double>& v, std::size_t from,
                             std::size_t idx, double q) {
  const auto at = v.begin() + static_cast<std::ptrdiff_t>(idx);
  if (idx >= from) {
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(from), at,
                     v.end());
  }
  if (idx + 1 >= v.size()) return *at;
  const double lo = *at;
  const double hi = *std::min_element(at + 1, v.end());
  const double frac =
      q * static_cast<double>(v.size() - 1) - static_cast<double>(idx);
  return lo + frac * (hi - lo);
}

}  // namespace

std::array<double, kTimeFeatureCount> time_features(
    std::span<const double> region) {
  if (region.empty()) throw util::DataError{"time_features: empty region"};
  const dsp::Summary s = dsp::summarize(region);
  std::array<double, kTimeFeatureCount> f{};
  f[0] = s.min;
  f[1] = s.max;
  f[2] = s.mean;
  f[3] = s.stddev;
  f[4] = s.variance;
  f[5] = s.max - s.min;
  f[6] = std::abs(s.mean) > 1e-12 ? s.stddev / std::abs(s.mean) : 0.0;
  f[7] = s.skewness;
  f[8] = s.kurtosis;
  // q50 is selected within the part the q25 selection left above i25.
  std::vector<double> v{region.begin(), region.end()};
  const std::size_t i25 = quantile_index(v.size(), 0.25);
  f[9] = quantile_by_selection(v, 0, i25, 0.25);
  f[10] = quantile_by_selection(v, i25 + 1, quantile_index(v.size(), 0.50),
                                0.50);
  f[11] = dsp::mean_crossing_rate(region);
  return f;
}

std::array<double, kFreqFeatureCount> freq_features(
    std::span<const double> region, double sample_rate_hz, double split_hz,
    util::Workspace& ws) {
  if (region.empty()) throw util::DataError{"freq_features: empty region"};
  if (sample_rate_hz <= 0.0) {
    throw util::ConfigError{"freq_features: sample_rate_hz must be > 0"};
  }

  // Remove DC (gravity) before the spectral analysis; the DC bin would
  // otherwise dominate every spectral moment.
  const util::Workspace::Scope scope{ws};
  std::span<double> x = ws.take<double>(region.size());
  std::copy(region.begin(), region.end(), x.begin());
  const double m = dsp::mean(x);
  for (double& v : x) v -= m;

  std::span<double> mag = ws.take<double>(region.size() / 2 + 1);
  dsp::rfft_magnitude_into(x, mag, ws);
  const std::size_t bins = mag.size();
  std::array<double, kFreqFeatureCount> f{};
  if (bins < 3) return f;

  const double bin_hz = sample_rate_hz / static_cast<double>(x.size());

  double energy = 0.0;
  double total_mag = 0.0;
  double max_mag = 0.0;
  for (std::size_t k = 1; k < bins; ++k) {  // skip residual DC bin
    energy += mag[k] * mag[k];
    total_mag += mag[k];
    max_mag = std::max(max_mag, mag[k]);
  }
  f[0] = energy;

  // Spectral entropy of the normalized power distribution.
  double entropy = 0.0;
  if (energy > 0.0) {
    for (std::size_t k = 1; k < bins; ++k) {
      const double p = mag[k] * mag[k] / energy;
      if (p > 0.0) entropy -= p * std::log2(p);
    }
    entropy /= std::log2(static_cast<double>(bins - 1));  // -> [0,1]
  }
  f[1] = entropy;

  // Frequency ratio: energy above the split vs total.
  double high = 0.0;
  for (std::size_t k = 1; k < bins; ++k) {
    if (static_cast<double>(k) * bin_hz >= split_hz) high += mag[k] * mag[k];
  }
  f[2] = energy > 0.0 ? high / energy : 0.0;

  // Irregularity (Krimphoff): sum |a_k - mean(a_{k-1},a_k,a_{k+1})|,
  // normalized by total magnitude.
  double irr_k = 0.0;
  for (std::size_t k = 2; k + 1 < bins; ++k) {
    irr_k += std::abs(mag[k] - (mag[k - 1] + mag[k] + mag[k + 1]) / 3.0);
  }
  f[3] = total_mag > 0.0 ? irr_k / total_mag : 0.0;

  // Irregularity (Jensen): sum (a_k - a_{k+1})^2 / sum a_k^2.
  double irr_j_num = 0.0;
  for (std::size_t k = 1; k + 1 < bins; ++k) {
    const double d = mag[k] - mag[k + 1];
    irr_j_num += d * d;
  }
  f[4] = energy > 0.0 ? irr_j_num / energy : 0.0;

  // Sharpness: loudness-weighted centroid with a high-frequency weight
  // (Zwicker-style g(z) ~ growing above mid band; here a smooth power
  // weight of normalized frequency).
  double sharp_num = 0.0, sharp_den = 0.0;
  for (std::size_t k = 1; k < bins; ++k) {
    const double z = static_cast<double>(k) / static_cast<double>(bins - 1);
    const double w = z * (1.0 + 3.0 * z * z);  // emphasis on the top octave
    sharp_num += w * mag[k] * mag[k];
    sharp_den += mag[k] * mag[k];
  }
  f[5] = sharp_den > 0.0 ? sharp_num / sharp_den : 0.0;

  // Smoothness (McAdams): sum |20log(a_k) - mean of neighbors in dB|.
  // Each bin's level is computed once and slides through the window.
  double smooth = 0.0;
  const auto level_db = [&mag](std::size_t k) {
    return 20.0 * std::log10(std::max(mag[k], 1e-12));
  };
  double db_prev = level_db(1);
  double db = level_db(2);
  for (std::size_t k = 2; k + 1 < bins; ++k) {
    const double db_next = level_db(k + 1);
    smooth += std::abs(db - (db_prev + db + db_next) / 3.0);
    db_prev = db;
    db = db_next;
  }
  f[6] = bins > 3 ? smooth / static_cast<double>(bins - 3) : 0.0;

  // Spectral moments over the power distribution.
  double centroid = 0.0;
  if (energy > 0.0) {
    for (std::size_t k = 1; k < bins; ++k) {
      centroid += static_cast<double>(k) * bin_hz * mag[k] * mag[k];
    }
    centroid /= energy;
  }
  f[7] = centroid;

  double spread2 = 0.0, m3 = 0.0, m4 = 0.0;
  if (energy > 0.0) {
    for (std::size_t k = 1; k < bins; ++k) {
      const double d = static_cast<double>(k) * bin_hz - centroid;
      const double p = mag[k] * mag[k] / energy;
      spread2 += d * d * p;
      m3 += d * d * d * p;
      m4 += d * d * d * d * p;
    }
  }
  const double spread = std::sqrt(spread2);
  f[8] = spread;
  f[9] = total_mag > 0.0 ? max_mag * static_cast<double>(bins - 1) / total_mag : 0.0;
  f[10] = spread > 0.0 ? m3 / (spread2 * spread) : 0.0;
  f[11] = spread2 > 0.0 ? m4 / (spread2 * spread2) - 3.0 : 0.0;
  return f;
}

std::vector<double> extract_features(std::span<const double> region,
                                     double sample_rate_hz) {
  return extract_features(region, sample_rate_hz, util::thread_workspace());
}

std::vector<double> extract_features(std::span<const double> region,
                                     double sample_rate_hz,
                                     util::Workspace& ws) {
  const auto t = time_features(region);
  const auto q = freq_features(region, sample_rate_hz, 50.0, ws);
  std::vector<double> out;
  out.reserve(kFeatureCount);
  out.insert(out.end(), t.begin(), t.end());
  out.insert(out.end(), q.begin(), q.end());
  return out;
}

}  // namespace emoleak::features
