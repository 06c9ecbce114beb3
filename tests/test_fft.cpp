// Tests for FFT implementations (dsp/fft.h): correctness against a
// direct DFT, Parseval's theorem across sizes (property sweep),
// round-trip inversion, and special inputs.
#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using emoleak::dsp::Complex;
using emoleak::dsp::fft;
using emoleak::dsp::fft_pow2;
using emoleak::dsp::irfft;
using emoleak::dsp::is_pow2;
using emoleak::dsp::next_pow2;
using emoleak::dsp::rfft;
using emoleak::dsp::rfft_magnitude;

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * t) / static_cast<double>(n);
      sum += x[t] * Complex{std::cos(angle), std::sin(angle)};
    }
    out[k] = sum;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  emoleak::util::Rng rng{seed};
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.normal(), rng.normal()};
  return x;
}

TEST(FftPow2Test, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(8, Complex{});
  x[0] = Complex{1.0, 0.0};
  fft_pow2(x);
  for (const Complex& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftPow2Test, DcGivesSingleBin) {
  std::vector<Complex> x(16, Complex{1.0, 0.0});
  fft_pow2(x);
  EXPECT_NEAR(x[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < 16; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-10);
}

TEST(FftPow2Test, NonPow2Throws) {
  std::vector<Complex> x(6);
  EXPECT_THROW(fft_pow2(x), emoleak::util::DataError);
}

TEST(FftPow2Test, MatchesNaiveDft) {
  const std::vector<Complex> x = random_signal(32, 1);
  std::vector<Complex> fast = x;
  fft_pow2(fast);
  const std::vector<Complex> slow = naive_dft(x);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-9);
  }
}

TEST(FftPow2Test, InverseRoundTrip) {
  const std::vector<Complex> x = random_signal(64, 2);
  std::vector<Complex> y = x;
  fft_pow2(y, false);
  fft_pow2(y, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] / 64.0 - x[i]), 0.0, 1e-10);
  }
}

TEST(FftTest, BluesteinMatchesNaiveDft) {
  for (const std::size_t n : {3u, 5u, 7u, 12u, 15u, 31u, 100u}) {
    const std::vector<Complex> x = random_signal(n, n);
    const std::vector<Complex> fast = fft(x);
    const std::vector<Complex> slow = naive_dft(x);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-8)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(FftTest, LinearityHolds) {
  const std::vector<Complex> a = random_signal(24, 3);
  const std::vector<Complex> b = random_signal(24, 4);
  std::vector<Complex> sum(24);
  for (std::size_t i = 0; i < 24; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fa = fft(a);
  const auto fb = fft(b);
  const auto fs = fft(sum);
  for (std::size_t k = 0; k < 24; ++k) {
    EXPECT_NEAR(std::abs(fs[k] - (2.0 * fa[k] + 3.0 * fb[k])), 0.0, 1e-8);
  }
}

TEST(FftTest, EmptyAndSingleElement) {
  EXPECT_TRUE(fft(std::vector<Complex>{}).empty());
  const std::vector<Complex> one{Complex{3.0, -2.0}};
  const auto f = fft(one);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NEAR(std::abs(f[0] - one[0]), 0.0, 1e-12);
}

TEST(RfftTest, SineLocalizedInCorrectBin) {
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 10.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const std::vector<double> mag = rfft_magnitude(x);
  ASSERT_EQ(mag.size(), n / 2 + 1);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mag.size(); ++k) {
    if (mag[k] > mag[peak]) peak = k;
  }
  EXPECT_EQ(peak, 10u);
  EXPECT_NEAR(mag[10], static_cast<double>(n) / 2.0, 1e-9);
}

TEST(RfftTest, HalfSpectrumSize) {
  for (const std::size_t n : {8u, 9u, 100u}) {
    EXPECT_EQ(rfft(std::vector<double>(n, 1.0)).size(), n / 2 + 1);
  }
}

TEST(IrfftTest, RoundTripsRealSignal) {
  emoleak::util::Rng rng{9};
  for (const std::size_t n : {8u, 16u, 64u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.normal();
    const auto half = rfft(x);
    const auto back = irfft(half, n);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST(IrfftTest, WrongSizeThrows) {
  const std::vector<Complex> half(5);
  EXPECT_THROW((void)irfft(half, 16), emoleak::util::DataError);
}

// Size 0 takes one half-spectrum bin and is not a power of two, so it
// must return before the non-power-of-two path, which would copy that
// bin into an empty buffer.
TEST(IrfftTest, SizeZeroReturnsEmpty) {
  const std::vector<Complex> half(1, Complex{1.0, 0.0});
  EXPECT_TRUE(irfft(half, 0).empty());
}

TEST(NextPow2Test, Values) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(IsPow2Test, Values) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

// Property: Parseval's theorem across sizes, including non-powers of 2.
class FftParseval : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftParseval, EnergyPreserved) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_signal(n, n * 7 + 1);
  const std::vector<Complex> f = fft(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const Complex& v : x) time_energy += std::norm(v);
  for (const Complex& v : f) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftParseval,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 16, 27, 64, 100,
                                           128, 255, 256, 1000));

// ----------------------------------------------------------- real FFT

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  emoleak::util::Rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

// The packed real transform must agree with the complex FFT of the
// zero-imaginary promotion to near machine precision.
TEST(RfftTest, MatchesComplexFftPow2) {
  for (const std::size_t n : {2u, 4u, 8u, 32u, 128u, 512u, 1024u}) {
    const std::vector<double> x = random_real(n, n + 41);
    std::vector<Complex> promoted(n);
    for (std::size_t i = 0; i < n; ++i) promoted[i] = Complex{x[i], 0.0};
    fft_pow2(promoted);
    double scale = 0.0;
    for (const Complex& v : promoted) scale = std::max(scale, std::abs(v));
    const std::vector<Complex> half = rfft(x);
    ASSERT_EQ(half.size(), n / 2 + 1);
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_NEAR(std::abs(half[k] - promoted[k]), 0.0, 1e-12 * scale)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RfftTest, MatchesComplexFftOddAndEvenNonPow2) {
  for (const std::size_t n : {3u, 6u, 9u, 15u, 100u, 111u}) {
    const std::vector<double> x = random_real(n, n + 91);
    std::vector<Complex> promoted(n);
    for (std::size_t i = 0; i < n; ++i) promoted[i] = Complex{x[i], 0.0};
    const std::vector<Complex> full = fft(promoted);
    double scale = 0.0;
    for (const Complex& v : full) scale = std::max(scale, std::abs(v));
    const std::vector<Complex> half = rfft(x);
    ASSERT_EQ(half.size(), n / 2 + 1);
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-10 * scale)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(RfftTest, SizeOneAndEmptyEdgeCases) {
  const std::vector<double> one{2.5};
  const auto h1 = rfft(one);
  ASSERT_EQ(h1.size(), 1u);
  EXPECT_NEAR(h1[0].real(), 2.5, 1e-15);
  EXPECT_NEAR(h1[0].imag(), 0.0, 1e-15);

  const auto h0 = rfft(std::vector<double>{});
  ASSERT_EQ(h0.size(), 1u);
  EXPECT_EQ(h0[0], Complex{});
}

TEST(RfftTest, MagnitudeIntoMatchesAllocatingVersion) {
  emoleak::util::Workspace ws;
  for (const std::size_t n : {8u, 100u, 420u, 1024u}) {
    const std::vector<double> x = random_real(n, n + 3);
    const std::vector<double> expected = rfft_magnitude(x);
    std::vector<double> got(n / 2 + 1);
    emoleak::dsp::rfft_magnitude_into(x, got, ws);
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_NEAR(got[k], expected[k], 1e-9 * (1.0 + expected[k])) << "n=" << n;
    }
  }
}

TEST(RfftTest, MagnitudeIntoIsAllocationFreeWhenWarm) {
  emoleak::util::Workspace ws;
  const std::vector<double> x = random_real(420, 7);  // non-pow2: Bluestein
  std::vector<double> out(x.size() / 2 + 1);
  emoleak::dsp::rfft_magnitude_into(x, out, ws);  // warm-up sizes the arena
  emoleak::dsp::rfft_magnitude_into(x, out, ws);
  const std::size_t warm = ws.grow_count();
  for (int iter = 0; iter < 20; ++iter) {
    emoleak::dsp::rfft_magnitude_into(x, out, ws);
  }
  EXPECT_EQ(ws.grow_count(), warm);
}

TEST(IrfftTest, RoundTripsOddLengthSignal) {
  const std::vector<double> x = random_real(9, 5);
  const auto back = irfft(rfft(x), x.size());
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

// Regression for the dangling-twiddles bug: references into a cached
// plan used to live inside a thread_local vector<vector<...>> that
// reallocated when other sizes were planned, silently corrupting
// transforms already in flight. Plans now sit in stable unique_ptr
// slots, so a plan obtained early must stay usable (and correct) after
// many other sizes are planned.
TEST(FftPlanTest, CachedPlanSurvivesPlanningManyOtherSizes) {
  using emoleak::dsp::FftPlan;
  const FftPlan& plan8 = FftPlan::get(8);
  const std::vector<Complex> x = random_signal(8, 77);
  std::vector<Complex> before = x;
  plan8.forward(before);

  // Force the plan cache to grow through many sizes (this reallocated
  // the old cache's backing vector several times).
  for (std::size_t n = 2; n <= (1u << 14); n *= 2) (void)FftPlan::get(n);

  std::vector<Complex> after = x;
  plan8.forward(after);  // plan8 must still be alive and correct
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(before[k], after[k]) << "k=" << k;
  }
  const std::vector<Complex> slow = naive_dft(x);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_NEAR(std::abs(after[k] - slow[k]), 0.0, 1e-10);
  }
}

TEST(FftPlanTest, InterleavedSizesStayConsistent) {
  using emoleak::dsp::FftPlan;
  // Interleave transforms of several sizes while holding all plan
  // references; every size must keep matching the naive DFT.
  const FftPlan& p16 = FftPlan::get(16);
  const FftPlan& p64 = FftPlan::get(64);
  const FftPlan& p256 = FftPlan::get(256);
  const FftPlan* plans[] = {&p16, &p64, &p256};
  for (int round = 0; round < 3; ++round) {
    for (const FftPlan* plan : plans) {
      const std::size_t n = plan->size();
      const std::vector<Complex> x = random_signal(n, n + round);
      std::vector<Complex> fast = x;
      plan->forward(fast);
      const std::vector<Complex> slow = naive_dft(x);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-8)
            << "n=" << n << " k=" << k;
      }
    }
  }
}

std::uint64_t bluestein_plans_built() {
  return emoleak::obs::Registry::instance()
      .counter("dsp.bluestein.plans_built")
      .value();
}

// A process that featurizes every region length must not keep a
// Bluestein plan per length forever: the cache holds at most
// kBluesteinCacheBytes of plans, evicts the least recently used, and a
// size planned again transforms bit-identically.
TEST(FftPlanTest, BluesteinCacheStaysBoundedAndReplansIdentically) {
  using emoleak::dsp::bluestein_plans_cached;
  using emoleak::dsp::kBluesteinCacheBytes;
  const std::vector<Complex> x = random_signal(4097, 31);
  const std::vector<Complex> first = fft(x);
  // Fresh odd sizes at m = 16384, ~0.33 MB of plan each: 40 of them
  // plan past the budget, so 4097's plan, the least recently used, is
  // evicted.
  std::size_t planned = (4097 + 16384) * sizeof(Complex);
  for (std::size_t i = 1; i <= 40; ++i) {
    const std::size_t n = 4097 + 2 * i;
    (void)fft(random_signal(n, i));
    planned += (n + 16384) * sizeof(Complex);
    EXPECT_LE(bluestein_plans_cached().bytes, kBluesteinCacheBytes) << "n=" << n;
  }
  ASSERT_GT(planned, kBluesteinCacheBytes);
  EXPECT_GT(bluestein_plans_cached().bytes, kBluesteinCacheBytes - 16384 * 32);
  const std::uint64_t built = bluestein_plans_built();
  const std::vector<Complex> again = fft(x);
  EXPECT_EQ(bluestein_plans_built(), built + 1) << "4097 was not evicted";
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(again[k], first[k]) << "k=" << k;
  }
}

// A plan larger than the whole budget is still kept: the newest plan
// always stays, so a long region is planned once, not per call.
TEST(FftPlanTest, BluesteinKeepsNewestPlanOverBudget) {
  using emoleak::dsp::bluestein_plans_cached;
  using emoleak::dsp::kBluesteinCacheBytes;
  const std::size_t n = 131073;  // m = 2^19: ~10.5 MB of plan
  const std::vector<double> x = random_real(n, 5);
  std::vector<double> out(n / 2 + 1);
  emoleak::util::Workspace ws;
  emoleak::dsp::rfft_magnitude_into(x, out, ws);
  EXPECT_EQ(bluestein_plans_cached().plans, 1u);
  EXPECT_GT(bluestein_plans_cached().bytes, kBluesteinCacheBytes);
  const std::uint64_t built = bluestein_plans_built();
  emoleak::dsp::rfft_magnitude_into(x, out, ws);
  EXPECT_EQ(bluestein_plans_built(), built);
}

// Worker threads transform overlapping odd and even lengths while
// another thread plans fresh large odd sizes past the budget, so
// plans are evicted while other threads still transform with them.
// Every result must match a single-threaded run bit for bit. The
// planner's schedule ends each cycle with a plan larger than the
// budget, which evicts every other plan, those in use included; a
// cache that handed out plain references to its plans would read
// freed memory there (ASan reports it).
TEST(FftPlanTest, SharedBluesteinCacheUnderContention) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 380; n < 820; n += 37) lengths.push_back(n);
  for (std::size_t n = 4099; n < 4400; n += 50) lengths.push_back(n);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> expected;
  {
    emoleak::util::Workspace ws;
    for (const std::size_t n : lengths) {
      inputs.push_back(random_real(n, n));
      expected.emplace_back(n / 2 + 1);
      emoleak::dsp::rfft_magnitude_into(inputs.back(), expected.back(), ws);
    }
  }

  constexpr int kWorkers = 4;
  std::atomic<bool> done{false};
  std::thread planner{[&done] {
    // Per cycle, 30 fresh sizes at m = 16384 (~0.33 MB of plan each,
    // ~25 fill the budget), then one at m = 2^19 (~10.5 MB).
    emoleak::util::Workspace ws;
    std::vector<double> out;
    std::size_t n = 4501;
    for (std::size_t cycle = 0; cycle < 3; ++cycle) {
      for (int i = 0; i < 30; ++i, n += 2) {
        const std::vector<double> x(n, 1.0);
        out.resize(n / 2 + 1);
        emoleak::dsp::rfft_magnitude_into(x, out, ws);
      }
      const std::vector<double> x(131073 + 2 * cycle, 1.0);
      out.resize(x.size() / 2 + 1);
      emoleak::dsp::rfft_magnitude_into(x, out, ws);
    }
    done.store(true, std::memory_order_release);
  }};
  std::vector<int> mismatches(kWorkers, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      emoleak::util::Workspace ws;
      std::vector<double> out;
      const std::size_t count = lengths.size();
      // Each worker starts at a different length and walks its own
      // direction, so threads meet shared lengths in different orders.
      for (std::size_t j = 0; j < count || !done.load(std::memory_order_acquire);
           ++j) {
        const std::size_t k = (j + 3 * static_cast<std::size_t>(w)) % count;
        const std::size_t i = w % 2 == 0 ? k : count - 1 - k;
        out.assign(lengths[i] / 2 + 1, 0.0);
        emoleak::dsp::rfft_magnitude_into(inputs[i], out, ws);
        if (out != expected[i]) ++mismatches[static_cast<std::size_t>(w)];
      }
    });
  }
  planner.join();
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0) << "worker " << w;
  }
}

TEST(FftPlanTest, RejectsNonPow2Sizes) {
  using emoleak::dsp::FftPlan;
  EXPECT_THROW(FftPlan{6}, emoleak::util::DataError);
  EXPECT_THROW((void)FftPlan::get(100), emoleak::util::DataError);
}

// FNV-1a-64 over the object bytes of every double fed to it: a compact
// fingerprint of every output bit.
class Digest {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<double>& xs) {
    for (const double v : xs) add(v);
  }
  void add(const std::vector<Complex>& xs) {
    for (const Complex& c : xs) {
      add(c.real());
      add(c.imag());
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Golden digests pin the spectral kernels across commits, not only
// within one process: a change to the butterflies, the real-input
// split or Bluestein that moves any output bit fails here. Each size
// covers forward and inverse fft, rfft, rfft_magnitude,
// rfft_magnitude_into and irfft. The constants hold for this toolchain
// and libm: the twiddles and chirps come from cos and sin, and the
// inputs from Rng::normal, which calls log and sqrt. A change that
// means to move bits re-pins them and says so.
struct GoldenSpectrum {
  std::size_t n;
  std::uint64_t digest;
};

TEST(GoldenDigestTest, SpectralKernelsPinnedAcrossCommits) {
  for (const GoldenSpectrum g : {
           GoldenSpectrum{2, 0xf9c9f6e94a2cca4dULL},
           GoldenSpectrum{4, 0x719b18c72e54f98fULL},
           GoldenSpectrum{8, 0x332462a304389b59ULL},
           GoldenSpectrum{16, 0x7c9eb60dfe9fe248ULL},
           GoldenSpectrum{32, 0x3d921add09bbf47cULL},
           GoldenSpectrum{64, 0xd4adbecda7b0a847ULL},
           GoldenSpectrum{128, 0x55d3162e14a43facULL},
           GoldenSpectrum{256, 0xafdee4f040673349ULL},
           GoldenSpectrum{512, 0xd4fd59cb519e9bd8ULL},
           GoldenSpectrum{1024, 0xb7dcb57a4320edb9ULL},
           GoldenSpectrum{2048, 0xf5655cc70a58865eULL},
           GoldenSpectrum{4096, 0xbda5ff85a66a73f3ULL},
           GoldenSpectrum{3, 0xca26aaf7c5e52150ULL},
           GoldenSpectrum{5, 0xab5975c6afdec331ULL},
           GoldenSpectrum{100, 0x281855c580feb77dULL},
           GoldenSpectrum{257, 0x4886c828ce6bc807ULL},
           GoldenSpectrum{420, 0x8bbd9bf0368380c9ULL},
           GoldenSpectrum{631, 0xb92dafdacf85e90fULL},
           GoldenSpectrum{840, 0xd39e84bb69464241ULL},
           GoldenSpectrum{1000, 0x2f773a6f46f32e4cULL},
           GoldenSpectrum{1777, 0xa47c41cfc23bc32fULL},
       }) {
    const std::vector<Complex> x = random_signal(g.n, 9000 + g.n);
    std::vector<double> r(g.n);
    for (std::size_t i = 0; i < g.n; ++i) r[i] = x[i].real();
    Digest d;
    d.add(fft(x));
    d.add(fft(x, true));
    const std::vector<Complex> half = rfft(r);
    d.add(half);
    d.add(rfft_magnitude(r));
    std::vector<double> mags(g.n / 2 + 1);
    emoleak::dsp::rfft_magnitude_into(r, mags, emoleak::util::thread_workspace());
    d.add(mags);
    d.add(irfft(half, g.n));
    EXPECT_EQ(d.value(), g.digest)
        << "n=" << g.n << " digest=0x" << std::hex << d.value();
  }
}

}  // namespace
