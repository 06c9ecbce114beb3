// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: FFT, STFT, filtering, feature extraction, synthesis, the
// conduction channel, and CNN layer passes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <numbers>
#include <sstream>

#include <unistd.h>

#include "audio/corpus.h"
#include "core/attack.h"
#include "core/dataset_cache.h"
#include "core/pipeline.h"
#include "core/speech_region.h"
#include "core/streaming.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/pitch.h"
#include "dsp/stft.h"
#include "features/features.h"
#include "ml/ensemble.h"
#include "ml/eval.h"
#include "ml/logistic.h"
#include "nn/cnn_models.h"
#include "nn/gemm.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "phone/channel.h"
#include "phone/recorder.h"
#include "util/rng.h"

namespace {

using namespace emoleak;

std::vector<double> noise_signal(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal();
  return x;
}

/// A 3-class logistic head over the 24 Table-II features, fit on
/// seeded Gaussian rows: cheap to build, and its predict costs what a
/// served emotion head's does.
std::shared_ptr<const ml::Classifier> table_model(std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset d;
  d.class_count = 3;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 12; ++i) {
      std::vector<double> row(24);
      for (double& v : row) v = rng.normal() + 1.5 * c;
      d.x.push_back(std::move(row));
      d.y.push_back(c);
    }
  }
  auto model = std::make_shared<ml::LogisticRegression>();
  model->fit(d);
  return model;
}

void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  util::Rng rng{2};
  for (auto& v : data) v = dsp::Complex{rng.normal(), rng.normal()};
  for (auto _ : state) {
    std::vector<dsp::Complex> copy = data;
    dsp::fft_pow2(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftBluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<dsp::Complex> data(n);
  util::Rng rng{3};
  for (auto& v : data) v = dsp::Complex{rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto out = dsp::fft(data);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(2187);

void BM_Rfft(benchmark::State& state) {
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)), 11);
  util::Workspace ws;
  std::vector<double> mags(x.size() / 2 + 1);
  for (auto _ : state) {
    dsp::rfft_magnitude_into(x, mags, ws);
    benchmark::DoNotOptimize(mags.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rfft)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Stft(benchmark::State& state) {
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)));
  dsp::StftConfig cfg;
  for (auto _ : state) {
    const auto spec = dsp::stft(x, 420.0, cfg);
    benchmark::DoNotOptimize(spec.data().data());
  }
}
BENCHMARK(BM_Stft)->Arg(420)->Arg(4200);

void BM_ButterworthFilter(benchmark::State& state) {
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)));
  auto hpf = dsp::BiquadCascade::butterworth_highpass(4, 8.0, 420.0);
  for (auto _ : state) {
    hpf.reset();
    auto out = hpf.filter(x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ButterworthFilter)->Arg(42000);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto x = noise_signal(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto f = features::extract_features(x, 420.0);
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(420)->Arg(840);

void BM_FeatureExtractionRegions(benchmark::State& state) {
  // Served regions vary in length and content, so a kernel timed on one
  // repeated input hides the selection's branch misses and the cost of
  // keeping a Bluestein plan per length (all 128 fit the process-wide
  // plan cache). Cycles through 128 distinct lengths in [380, 820]
  // samples (fleet_sparse's closing regions, p50 652), each with its
  // own noise; time per iteration is the mean per-region cost.
  constexpr std::size_t kRegions = 128;
  std::vector<std::vector<double>> regions;
  for (std::size_t i = 0; i < kRegions; ++i) {
    // 37 is coprime to 441, so the lengths are distinct.
    regions.push_back(noise_signal(380 + (i * 37) % 441, 100 + i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto f = features::extract_features(regions[i], 420.0);
    benchmark::DoNotOptimize(f.data());
    i = i + 1 == kRegions ? 0 : i + 1;
  }
}
BENCHMARK(BM_FeatureExtractionRegions);

void BM_UtteranceSynthesis(benchmark::State& state) {
  const audio::Corpus corpus{audio::scaled_spec(audio::tess_spec(), 0.01), 5};
  std::size_t i = 0;
  for (auto _ : state) {
    auto u = corpus.synthesize(i % corpus.size());
    benchmark::DoNotOptimize(u.samples.data());
    ++i;
  }
}
BENCHMARK(BM_UtteranceSynthesis);

void BM_ConductionChannel(benchmark::State& state) {
  const auto audio_sig = noise_signal(4000, 6);
  const phone::PhoneProfile profile = phone::oneplus_7t();
  for (auto _ : state) {
    auto vib = phone::conduct(audio_sig, 2000.0, profile,
                              phone::SpeakerKind::kLoudspeaker);
    auto sampled = phone::accel_sampling_chain(vib, 2000.0, profile);
    benchmark::DoNotOptimize(sampled.data());
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_ConductionChannel);

void BM_SpeechRegionDetection(benchmark::State& state) {
  // 100 s of trace with bursts.
  auto x = noise_signal(42000, 7);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 9.81 + 0.003 * x[i];
    if ((i / 2000) % 3 == 0) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 * i / 420.0);
    }
  }
  const core::SpeechRegionDetector detector{core::tabletop_detector_config()};
  for (auto _ : state) {
    auto regions = detector.detect(x, 420.0);
    benchmark::DoNotOptimize(regions.data());
  }
  state.SetItemsProcessed(state.iterations() * 42000);
}
BENCHMARK(BM_SpeechRegionDetection);

void BM_StreamingPush(benchmark::State& state) {
  // Steady-state StreamingAttack::push: one 512-sample chunk per
  // iteration (time / 512 = per-sample cost) into a session whose 10 s
  // noise window is already full. Arg 0 is silence, so every sample
  // pays only detection; Arg 1 carries a 0.5 s tone every 2 s, so
  // regions close (featurize + predict) about once per 840 samples.
  constexpr std::size_t kSamples = 42000;  // 100 s at 420 Hz
  constexpr std::size_t kWarm = 4200;
  constexpr std::size_t kChunk = 512;
  constexpr double kRate = 420.0;
  const bool bursts = state.range(0) != 0;
  auto x = noise_signal(kSamples, 11);
  for (std::size_t i = 0; i < kSamples; ++i) {
    x[i] = 9.81 + 0.003 * x[i];
    if (bursts && i >= kWarm && (i - kWarm) % 840 < 210) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                             static_cast<double>(i) / kRate);
    }
  }
  core::StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  core::StreamingAttack attack{cfg, kRate, table_model(310)};
  (void)attack.push(std::span<const double>{x.data(), kWarm});
  std::size_t pos = kWarm;
  std::size_t events = 0;
  for (auto _ : state) {
    if (pos + kChunk > kSamples) pos = kWarm;
    events +=
        attack.push(std::span<const double>{x.data() + pos, kChunk}).size();
    pos += kChunk;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kChunk));
  state.counters["events_per_chunk"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StreamingPush)->Arg(0)->Arg(1);

void BM_ExtractAndCrossValidate(benchmark::State& state) {
  // End-to-end hot path at a given thread count (Arg): per-region
  // extraction followed by 10-fold RandomForest cross-validation.
  // Results are bit-identical across thread counts; only wall-clock
  // changes. Run with --benchmark_filter=ExtractAndCrossValidate to
  // compare Arg(1) vs Arg(4) for the parallel speedup.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const audio::Corpus corpus{audio::scaled_spec(audio::tess_spec(), 0.06), 43};
  phone::RecorderConfig rc;
  rc.seed = 43;
  const phone::Recording recording =
      record_session(corpus, phone::oneplus_7t(), rc);

  core::PipelineConfig pipeline;
  pipeline.detector = core::tabletop_detector_config();
  pipeline.parallelism.threads = threads;

  ml::RandomForestConfig rf_cfg;
  rf_cfg.parallelism.threads = threads;

  double accuracy = 0.0;
  for (auto _ : state) {
    const core::ExtractedData data = core::extract(recording, pipeline);
    const ml::EvalResult result =
        ml::cross_validate(ml::RandomForest{rf_cfg}, data.features, 10, 43,
                           {.threads = threads});
    // No DoNotOptimize here: benchmark 1.7.1's "+m,r" asm constraint
    // miscompiles scalar doubles under GCC 12, and the calls above are
    // opaque to the optimizer anyway.
    accuracy = result.accuracy;
  }
  std::ostringstream label;
  label << "accuracy=" << accuracy;
  state.SetLabel(label.str());
}
BENCHMARK(BM_ExtractAndCrossValidate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Gaussian class blobs in 24 dimensions, shaped like the Table-II
/// feature matrix the tree trainers actually see.
ml::Dataset tree_bench_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset d;
  d.class_count = 7;
  for (std::size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.uniform_int(7));
    std::vector<double> row(24);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = rng.normal() + (j < 4 ? 0.6 * c : 0.0);
    }
    d.x.push_back(std::move(row));
    d.y.push_back(c);
  }
  return d;
}

void BM_TreeTrain(benchmark::State& state) {
  // Presorted exact induction (the default): byte-identical to the
  // per-node-sort CART it replaced (test_tree's oracle).
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset d = tree_bench_data(n, 51);
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.fit(d);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_TreeTrain)->Arg(1000)->Arg(4000);

void BM_ForestTrain(benchmark::State& state) {
  // Single-threaded so the gate measures the induction kernel, not the
  // thread pool; the presort speedup carries through per-tree training.
  const ml::Dataset d = tree_bench_data(1500, 52);
  ml::RandomForestConfig cfg;
  cfg.tree_count = 20;
  cfg.parallelism.threads = 1;
  for (auto _ : state) {
    ml::RandomForest forest{cfg};
    forest.fit(d);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestTrain)->Unit(benchmark::kMillisecond);

void BM_ForestTrainBinned(benchmark::State& state) {
  // Binned induction on the same data/config as BM_ForestTrain: the
  // shared <=256-bin quantile binner replaces the shared presort, and
  // per-node work drops from sorted-column scans over doubles to one
  // counting sort of u8 bin codes per candidate feature.
  const ml::Dataset d = tree_bench_data(1500, 52);
  ml::RandomForestConfig cfg;
  cfg.tree_count = 20;
  cfg.parallelism.threads = 1;
  cfg.tree.exact = false;
  for (auto _ : state) {
    ml::RandomForest forest{cfg};
    forest.fit(d);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestTrainBinned)->Unit(benchmark::kMillisecond);

constexpr double kPitchBenchRate = 16000.0;

std::vector<double> pitch_bench_signal() {
  // 2 s of vibrato tone + noise at audio rate (16 kHz): every frame
  // runs the full correlation (voiced), which is the expensive case,
  // and the 50-400 Hz default search range spans 320 lags per frame.
  constexpr double kRate = kPitchBenchRate;
  util::Rng rng{53};
  std::vector<double> x(static_cast<std::size_t>(kRate * 2.0));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / kRate;
    const double f0 = 130.0 + 8.0 * std::sin(2.0 * std::numbers::pi * 5.0 * t);
    x[i] = std::sin(2.0 * std::numbers::pi * f0 * t) + 0.15 * rng.normal();
  }
  return x;
}

void BM_PitchTrack(benchmark::State& state) {
  // At 16 kHz the default 50-400 Hz range dispatches every frame to the
  // unrolled kFast correlator (test_pitch asserts the dispatch).
  const auto x = pitch_bench_signal();
  for (auto _ : state) {
    const auto track = dsp::track_pitch(x, kPitchBenchRate);
    benchmark::DoNotOptimize(track.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(x.size()));
}
BENCHMARK(BM_PitchTrack);

core::ScenarioConfig dataset_bench_scenario() {
  core::ScenarioConfig sc = core::loudspeaker_scenario(
      audio::savee_spec(), phone::oneplus_7t(), /*seed=*/43);
  sc.corpus_fraction = 0.05;
  return sc;
}

void BM_DatasetBuildHit(benchmark::State& state) {
  // Steady-state cost of a memoized dataset request (key render + map
  // lookup); the synthesize/conduct/extract pipeline runs zero times.
  core::DatasetCache cache;
  const core::ScenarioConfig sc = dataset_bench_scenario();
  (void)cache.get_or_build(sc);  // warm the entry
  for (auto _ : state) {
    auto data = cache.get_or_build(sc);
    benchmark::DoNotOptimize(data.get());
  }
}
BENCHMARK(BM_DatasetBuildHit);

void BM_DatasetBuildCold(benchmark::State& state) {
  // The full build a hit avoids (uncached capture of the same scenario).
  const core::ScenarioConfig sc = dataset_bench_scenario();
  for (auto _ : state) {
    const core::ExtractedData data = core::capture(sc);
    benchmark::DoNotOptimize(data.features.x.data());
  }
}
BENCHMARK(BM_DatasetBuildCold)->Unit(benchmark::kMillisecond);

void BM_DatasetDiskHit(benchmark::State& state) {
  // Disk-tier hit: the memory tier is cleared every iteration, so each
  // request pays the full cross-process path — open + mmap the cached
  // file, verify both checksums, deserialize the payload. This is what
  // a *second process* pays instead of the BM_DatasetBuildCold capture.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("emoleak-bench-diskhit-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  core::DatasetCache cache{dir.string()};
  const core::ScenarioConfig sc = dataset_bench_scenario();
  (void)cache.get_or_build(sc);  // build once, lands in the disk tier
  for (auto _ : state) {
    cache.clear();  // forget the memory tier, keep the disk file
    auto data = cache.get_or_build(sc);
    benchmark::DoNotOptimize(data.get());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DatasetDiskHit)->Unit(benchmark::kMillisecond);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng{12};
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (float& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::gemm(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void BM_TimefreqCnnForward(benchmark::State& state) {
  nn::Sequential model = nn::build_timefreq_cnn(24, 7, nn::CnnConfig::fast());
  nn::Tensor x{{32, 1, 24, 1}};
  util::Rng rng{8};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  for (auto _ : state) {
    auto y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_TimefreqCnnForward);

void BM_SpectrogramCnnForward(benchmark::State& state) {
  nn::Sequential model =
      nn::build_spectrogram_cnn(32, 32, 7, nn::CnnConfig::fast());
  nn::Tensor x{{8, 32, 32, 1}};
  util::Rng rng{9};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  for (auto _ : state) {
    auto y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SpectrogramCnnForward);

void BM_BatchedCnnForward(benchmark::State& state) {
  // The serve batch step's shape: N concurrent sessions' ready windows
  // through one forward of the time-frequency CNN (Arg = batch rows).
  // Items/sec is windows/sec — the cross-batch scaling this reports is
  // the whole point of the batched drain path (DESIGN.md §13).
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::Sequential model = nn::build_timefreq_cnn(24, 7, nn::CnnConfig::fast());
  // Multi-row batches fan out over the shared pool exactly like the
  // serve drain's CnnClassifier; on a single-core host this degrades to
  // the serial path and batch sizes score within noise of each other.
  model.set_parallelism(util::Parallelism{});
  nn::Tensor x{{batch, 1, 24, 1}};
  util::Rng rng{8};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  for (auto _ : state) {
    const nn::Tensor& y = model.forward_ref(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchedCnnForward)->Arg(1)->Arg(8)->Arg(64);

void BM_Conv2DBackward(benchmark::State& state) {
  // One representative 3x3 'same' convolution layer, forward + backward
  // (the backward pass dominates training time).
  nn::Conv2D conv{8, 16, 3, 3, /*same=*/true, 13};
  nn::Tensor x{{4, 16, 16, 8}};
  nn::Tensor g{{4, 16, 16, 16}};
  util::Rng rng{14};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.normal());
  }
  for (auto _ : state) {
    (void)conv.forward(x, true);
    const nn::Tensor& gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_Conv2DBackward);

void BM_CnnTrainStep(benchmark::State& state) {
  // One training step of the fast spectrogram CNN at batch 32: forward,
  // loss, backward and an Adam update. Conv2D fans each batch out over
  // the shared pool at the default parallelism, as CnnClassifier::fit
  // does; on a single-core host this is the serial step.
  nn::Sequential model =
      nn::build_spectrogram_cnn(32, 32, 7, nn::CnnConfig::fast());
  model.set_parallelism(util::Parallelism{});
  constexpr std::size_t kBatch = 32;
  nn::Tensor x{{kBatch, 32, 32, 1}};
  util::Rng rng{15};
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  std::vector<int> labels(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) labels[i] = static_cast<int>(i % 7);
  nn::Adam optimizer{model.parameters(), 1e-3};
  nn::Tensor grad;
  for (auto _ : state) {
    const nn::Tensor& logits = model.forward_ref(x, /*training=*/true);
    (void)nn::softmax_cross_entropy(logits, labels, grad);
    const nn::Tensor gx = model.backward(grad);
    optimizer.step();
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_CnnTrainStep);

void BM_ServeThroughput(benchmark::State& state) {
  // End-to-end serving-layer throughput: N concurrent streams of
  // burst-bearing accelerometer data pushed as 512-sample chunks and
  // drained on the thread pool. Arg is the drain thread count; items
  // processed counts samples classified end to end.
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kSamples = 25200;  // 60 s at 420 Hz
  constexpr std::size_t kChunk = 512;
  constexpr double kRate = 420.0;

  std::vector<std::vector<double>> traces;
  for (std::size_t s = 0; s < kStreams; ++s) {
    util::Rng rng{300 + s};
    std::vector<double> x(kSamples, 9.81);
    for (std::size_t i = 0; i < kSamples; ++i) x[i] += 0.003 * rng.normal();
    for (std::size_t i = 8000; i < 8700; ++i) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                             static_cast<double>(i) / kRate);
    }
    traces.push_back(std::move(x));
  }
  const auto model = table_model(310);

  for (auto _ : state) {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("m", model);
    serve::ServeConfig cfg;
    cfg.session.stream.detector = core::tabletop_detector_config();
    cfg.session.sample_rate_hz = kRate;
    cfg.session.max_sessions = kStreams;
    // Hash collisions can land several streams on one shard; size each
    // queue to hold every request so nothing is shed mid-benchmark.
    cfg.batcher.queue_capacity = kStreams * (kSamples / kChunk + 2);
    cfg.parallelism = util::Parallelism{.threads = threads};
    serve::ServeService service{cfg, registry};
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t i = 0; i < kSamples; i += kChunk) {
        const std::size_t hi = std::min(i + kChunk, kSamples);
        (void)service.push(
            s, std::vector<double>{
                   traces[s].begin() + static_cast<std::ptrdiff_t>(i),
                   traces[s].begin() + static_cast<std::ptrdiff_t>(hi)});
      }
      (void)service.finish_stream(s);
    }
    service.drain();
    benchmark::DoNotOptimize(
        service.metrics_snapshot().counter("serve.events_emitted"));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(kStreams * kSamples));
}
BENCHMARK(BM_ServeThroughput)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SpanOverhead(benchmark::State& state) {
  // The cost the obs layer imposes on an instrumented call site when
  // tracing is runtime-disabled: one relaxed atomic load and a null
  // check in the destructor. This is the price every OBS_SPAN pays in
  // production, so it must stay in the ~1 ns range.
  obs::set_trace_enabled(false);
  for (auto _ : state) {
    OBS_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverhead);

void BM_SpanOverheadEnabled(benchmark::State& state) {
  // Full span cost when recording: two clock reads plus a lock-free
  // ring-slot write. Budget from the issue: < 100 ns.
  obs::set_trace_enabled(true);
  for (auto _ : state) {
    OBS_SPAN_ARG("bench.enabled", "iter", 1);
    benchmark::ClobberMemory();
  }
  obs::set_trace_enabled(false);
  obs::clear_trace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverheadEnabled);

void BM_HistogramRecord(benchmark::State& state) {
  // Wait-free histogram record: bucket index (countl_zero + shifts) and
  // one relaxed fetch_add. This replaced the serve layer's mutex ring.
  obs::Registry registry;
  obs::Histogram& h = registry.histogram("bench.latency");
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG spread
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/// A snapshot the size a loaded multi-task server actually exposes:
/// the serve.* + per-task + net.* counter population, and histograms
/// whose recordings span the full log-bucket range.
obs::RegistrySnapshot telemetry_snapshot_fixture() {
  obs::Registry registry;
  util::SplitMix64 rng{7};
  for (int i = 0; i < 28; ++i) {
    registry.counter("serve.task.model-" + std::to_string(i % 4) +
                     ".counter_" + std::to_string(i))
        .add(rng.next() % 1000000);
  }
  for (int i = 0; i < 4; ++i) {
    registry.gauge("net.gauge_" + std::to_string(i))
        .add(static_cast<std::int64_t>(rng.next() % 512));
  }
  for (int i = 0; i < 6; ++i) {
    obs::Histogram& h = registry.histogram("serve.hist_" + std::to_string(i));
    for (int r = 0; r < 4096; ++r) h.record(rng.next() >> (rng.next() % 40));
  }
  return registry.snapshot();
}

void BM_MetricsReplyEncode(benchmark::State& state) {
  // Wire cost of one kMetricsReply: what the serving event loop pays
  // per remote scrape, on the same thread that moves traffic.
  const serve::MetricsReplyMsg msg{telemetry_snapshot_fixture()};
  std::string out;
  for (auto _ : state) {
    out.clear();
    serve::encode(out, msg);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_MetricsReplyEncode);

void BM_PromText(benchmark::State& state) {
  // Prometheus text rendering of the same snapshot (scraper side).
  const obs::RegistrySnapshot snapshot = telemetry_snapshot_fixture();
  for (auto _ : state) {
    std::string text = obs::prometheus_text(snapshot);
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PromText);

}  // namespace

BENCHMARK_MAIN();
