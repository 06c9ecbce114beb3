#include "dsp/stft.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace emoleak::dsp {

void StftConfig::validate() const {
  if (window_length == 0) throw util::ConfigError{"StftConfig: window_length == 0"};
  if (hop == 0) throw util::ConfigError{"StftConfig: hop == 0"};
}

Spectrogram::Spectrogram(std::vector<double> magnitudes, std::size_t frames,
                         std::size_t bins, double sample_rate_hz)
    : mags_{std::move(magnitudes)},
      frames_{frames},
      bins_{bins},
      sample_rate_hz_{sample_rate_hz} {
  if (mags_.size() != frames_ * bins_) {
    throw util::DataError{"Spectrogram: data size != frames * bins"};
  }
}

double Spectrogram::at(std::size_t frame, std::size_t bin) const {
  if (frame >= frames_ || bin >= bins_) {
    throw util::DataError{"Spectrogram::at: index out of range"};
  }
  return mags_[frame * bins_ + bin];
}

double Spectrogram::bin_frequency_hz(std::size_t bin) const noexcept {
  // bins_ = fft_size/2 + 1, so fft_size = 2*(bins_-1).
  const double fft_size = 2.0 * static_cast<double>(bins_ - 1);
  return sample_rate_hz_ * static_cast<double>(bin) / fft_size;
}

std::vector<double> Spectrogram::to_db(double floor_db) const {
  double max_mag = 0.0;
  for (const double m : mags_) max_mag = std::max(max_mag, m);
  if (max_mag <= 0.0) max_mag = 1e-300;
  std::vector<double> db(mags_.size());
  for (std::size_t i = 0; i < mags_.size(); ++i) {
    const double rel = mags_[i] / max_mag;
    const double v = rel > 0.0 ? 20.0 * std::log10(rel) : floor_db;
    db[i] = std::max(v, floor_db);
  }
  return db;
}

namespace {

/// Maps a virtual index from the padded axis onto [0, n) by reflecting
/// around the first and last samples (librosa's `reflect`, no edge
/// repeat): ..., s[2], s[1], | s[0..n-1] |, s[n-2], s[n-3], ...
std::size_t reflect_index(std::size_t k, std::size_t n) {
  if (n <= 1) return 0;
  const std::size_t period = 2 * (n - 1);
  k %= period;
  return k < n ? k : period - k;
}

}  // namespace

StftShape stft_shape(std::size_t signal_len, const StftConfig& config) {
  config.validate();
  const std::size_t win_len = config.window_length;
  const std::size_t padded_len = signal_len + 2 * (win_len / 2);
  StftShape shape;
  shape.bins = next_pow2(win_len) / 2 + 1;
  // The padding leaves at least win_len - 1 samples, so only an empty
  // signal under an odd window falls short of one frame; it gets the
  // same single zero frame as every other empty signal.
  shape.frames =
      padded_len >= win_len ? (padded_len - win_len) / config.hop + 1 : 1;
  return shape;
}

void stft_magnitudes(std::span<const double> signal, const StftConfig& config,
                     std::span<double> mags, util::Workspace& ws) {
  const StftShape shape = stft_shape(signal.size(), config);
  const std::size_t win_len = config.window_length;
  const std::size_t fft_size = next_pow2(win_len);
  if (mags.size() != shape.cells()) {
    throw util::DataError{"stft_magnitudes: output size != frames * bins"};
  }
  // Kernel tallies: STFT invocations and the frames they decompose to.
  static obs::Counter& stft_calls =
      obs::Registry::instance().counter("dsp.stft.calls");
  static obs::Counter& stft_frames =
      obs::Registry::instance().counter("dsp.stft.frames");
  stft_calls.add(1);
  stft_frames.add(shape.frames);

  const util::Workspace::Scope scope{ws};
  std::span<double> window = ws.take<double>(win_len);
  fill_hann(window);

  // Reflect-pad by half a window on both ends so frame centers align
  // with signal samples. Front and back pads mirror symmetrically
  // around the first / last sample; reflect_index keeps folding for
  // signals shorter than half a window instead of clamping to an edge
  // sample.
  const std::size_t pad = win_len / 2;
  const std::span<double> x = ws.take<double>(signal.size() + 2 * pad);
  for (std::size_t i = 0; i < pad; ++i) {
    x[i] = signal.empty() ? 0.0
                          : signal[reflect_index(pad - i, signal.size())];
  }
  std::copy(signal.begin(), signal.end(),
            x.begin() + static_cast<std::ptrdiff_t>(pad));
  for (std::size_t i = 0; i < pad; ++i) {
    x[pad + signal.size() + i] =
        signal.empty() ? 0.0
                       : signal[reflect_index(signal.size() + i, signal.size())];
  }

  const FftPlan& plan = FftPlan::get(fft_size);
  std::span<double> frame_buf = ws.take<double>(fft_size);
  for (std::size_t f = 0; f < shape.frames; ++f) {
    const std::size_t start = f * config.hop;
    for (std::size_t i = 0; i < win_len; ++i) {
      const std::size_t idx = start + i;
      frame_buf[i] = idx < x.size() ? x[idx] * window[i] : 0.0;
    }
    std::fill(frame_buf.begin() + static_cast<std::ptrdiff_t>(win_len),
              frame_buf.end(), 0.0);
    plan.rfft_magnitude(frame_buf, mags.subspan(f * shape.bins, shape.bins), ws);
  }
}

Spectrogram stft(std::span<const double> signal, double sample_rate_hz,
                 const StftConfig& config, util::Workspace& ws) {
  if (sample_rate_hz <= 0.0) throw util::ConfigError{"stft: sample_rate_hz <= 0"};
  const StftShape shape = stft_shape(signal.size(), config);
  std::vector<double> mags(shape.cells());
  stft_magnitudes(signal, config, mags, ws);
  return Spectrogram{std::move(mags), shape.frames, shape.bins, sample_rate_hz};
}

Spectrogram stft(std::span<const double> signal, double sample_rate_hz,
                 const StftConfig& config) {
  return stft(signal, sample_rate_hz, config, util::thread_workspace());
}

std::vector<double> spectrogram_image(const Spectrogram& spec, std::size_t width,
                                      std::size_t height, double floor_db) {
  if (width == 0 || height == 0) {
    throw util::ConfigError{"spectrogram_image: width/height must be > 0"};
  }
  const std::vector<double> db = spec.to_db(floor_db);
  const std::size_t frames = spec.frames();
  const std::size_t bins = spec.bins();
  std::vector<double> image(width * height, 0.0);
  // Cell (r, c) of the image mean-pools a rectangle of the spectrogram:
  // image columns span time (frames), rows span frequency (bins), with
  // row 0 = highest frequency so the image reads like the paper's plots.
  for (std::size_t r = 0; r < height; ++r) {
    const std::size_t b0 = (height - 1 - r) * bins / height;
    const std::size_t b1 = std::max<std::size_t>((height - r) * bins / height, b0 + 1);
    for (std::size_t c = 0; c < width; ++c) {
      const std::size_t f0 = c * frames / width;
      const std::size_t f1 = std::max<std::size_t>((c + 1) * frames / width, f0 + 1);
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t f = f0; f < f1 && f < frames; ++f) {
        for (std::size_t b = b0; b < b1 && b < bins; ++b) {
          sum += db[f * bins + b];
          ++count;
        }
      }
      const double mean_db = count ? sum / static_cast<double>(count) : floor_db;
      image[r * width + c] = (mean_db - floor_db) / -floor_db;  // -> [0, 1]
    }
  }
  return image;
}

std::vector<double> region_image(std::span<const double> region,
                                 double sample_rate_hz, const StftConfig& config,
                                 std::size_t size, util::Workspace& ws) {
  const util::Workspace::Scope scope{ws};
  std::span<double> centered = ws.take<double>(region.size());
  std::copy(region.begin(), region.end(), centered.begin());
  double mean = 0.0;
  for (const double v : centered) mean += v;
  mean /= static_cast<double>(centered.size());
  for (double& v : centered) v -= mean;
  return spectrogram_image(stft(centered, sample_rate_hz, config, ws), size,
                           size);
}

}  // namespace emoleak::dsp
