#include "dsp/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace emoleak::dsp {

Summary summarize(std::span<const double> x) {
  if (x.empty()) throw util::DataError{"summarize: empty sample"};
  Summary s;
  s.count = x.size();
  s.min = x[0];
  s.max = x[0];
  double sum = 0.0;
  for (const double v : x) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  const double n = static_cast<double>(x.size());
  s.mean = sum / n;
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (const double v : x) {
    const double d = v - s.mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  s.variance = m2;
  s.stddev = std::sqrt(m2);
  if (s.stddev > 0.0) {
    s.skewness = m3 / (m2 * s.stddev);
    s.kurtosis = m4 / (m2 * m2) - 3.0;
  }
  return s;
}

double mean(std::span<const double> x) {
  if (x.empty()) throw util::DataError{"mean: empty sample"};
  double sum = 0.0;
  for (const double v : x) sum += v;
  return sum / static_cast<double>(x.size());
}

double quantile(std::span<const double> x, double q) {
  std::vector<double> sorted{x.begin(), x.end()};
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw util::DataError{"quantile: empty sample"};
  if (q < 0.0 || q > 1.0) throw util::DataError{"quantile: q must be in [0,1]"};
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] + frac * (sorted[idx + 1] - sorted[idx]);
}

double mean_crossing_rate(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    const bool above_prev = x[i - 1] > m;
    const bool above_now = x[i] > m;
    if (above_prev != above_now) ++crossings;
  }
  return static_cast<double>(crossings) / static_cast<double>(x.size() - 1);
}

double rms(std::span<const double> x) {
  if (x.empty()) throw util::DataError{"rms: empty sample"};
  double e = 0.0;
  for (const double v : x) e += v * v;
  return std::sqrt(e / static_cast<double>(x.size()));
}

}  // namespace emoleak::dsp
