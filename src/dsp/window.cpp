#include "dsp/window.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace emoleak::dsp {

void fill_hann(std::span<double> out) {
  const std::size_t length = out.size();
  if (length == 0) throw util::DataError{"fill_hann: length must be > 0"};
  if (length == 1) {
    out[0] = 1.0;
    return;
  }
  const double n = static_cast<double>(length);  // periodic convention
  constexpr double tau = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < length; ++i) {
    const double x = static_cast<double>(i) / n;
    out[i] = 0.5 - 0.5 * std::cos(tau * x);
  }
}

}  // namespace emoleak::dsp
