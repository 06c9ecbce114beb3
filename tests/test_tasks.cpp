// Tests for the task subsystem (src/tasks) and its serve-side plumbing:
// StreamStart wire round-trips including the v1 short encoding,
// registry duplicate-name hot-swap semantics, mitigation-filter chunk
// invariance, fingerprint classifier round-trips, task label
// derivation, and the headline contract — a drain tick batching streams
// bound to *different* models is bit-identical to per-task serial runs.
// The mixed-task parity test is a TSan target alongside test_serve's
// concurrent-producer test (see the sanitizer recipe in ROADMAP.md).
#include "tasks/task_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <sstream>
#include <variant>

#include "audio/corpus.h"
#include "core/attack.h"
#include "core/streaming.h"
#include "dsp/resample.h"
#include "ml/dataset.h"
#include "ml/logistic.h"
#include "nn/cnn_classifier.h"
#include "nn/tensor.h"
#include "phone/profile.h"
#include "phone/recorder.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "tasks/fingerprint.h"
#include "tasks/mitigation.h"
#include "tasks/train.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace emoleak;
using serve::ModelRegistry;
using serve::ServeService;
using serve::Status;

constexpr double kRate = 420.0;

std::vector<double> trace_with_bursts(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& bursts,
    std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> x(n, 9.81);
  for (std::size_t i = 0; i < n; ++i) x[i] += 0.003 * rng.normal();
  for (const auto& [lo, hi] : bursts) {
    for (std::size_t i = lo; i < hi && i < n; ++i) {
      x[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                             static_cast<double>(i) / kRate);
    }
  }
  return x;
}

std::vector<double> default_trace(std::uint64_t seed) {
  return trace_with_bursts(
      25200, {{8000, 8700}, {13000, 13800}, {20000, 20600}}, seed);
}

core::StreamingConfig stream_config() {
  core::StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  return cfg;
}

std::shared_ptr<const ml::Classifier> make_table_model(int classes,
                                                       std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset d;
  d.class_count = classes;
  for (int c = 0; c < classes; ++c) {
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

/// A fingerprint matcher over the spectrogram route's 32x32 images.
std::shared_ptr<const ml::Classifier> make_image_model(int classes,
                                                       std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset d;
  d.class_count = classes;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < 4; ++i) {
      std::vector<double> row(32 * 32);
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = (j % static_cast<std::size_t>(classes + 1) ==
                  static_cast<std::size_t>(c))
                     ? 1.0
                     : 0.1 * rng.normal();
      }
      d.x.push_back(std::move(row));
      d.y.push_back(c);
    }
  }
  auto model = std::make_shared<tasks::FingerprintClassifier>();
  model->fit(d);
  return model;
}

std::vector<double> slice(const std::vector<double>& x, std::size_t lo,
                          std::size_t hi) {
  return {x.begin() + static_cast<std::ptrdiff_t>(lo),
          x.begin() + static_cast<std::ptrdiff_t>(hi)};
}

std::vector<core::EmotionEvent> standalone_events(
    const std::vector<double>& trace, std::size_t chunk,
    std::shared_ptr<const ml::Classifier> model, core::FeatureRoute route) {
  core::StreamingAttack attack{stream_config(), kRate, nullptr};
  attack.set_classifier(std::move(model), route);
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < trace.size(); i += chunk) {
    const std::size_t hi = std::min(i + chunk, trace.size());
    auto out = attack.push(std::span<const double>{trace.data() + i, hi - i});
    events.insert(events.end(), out.begin(), out.end());
  }
  if (auto last = attack.finish()) events.push_back(*last);
  return events;
}

void expect_same_events(const std::vector<core::EmotionEvent>& a,
                        const std::vector<core::EmotionEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_sample, b[i].start_sample);
    EXPECT_EQ(a[i].end_sample, b[i].end_sample);
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class);
    ASSERT_EQ(a[i].probabilities.size(), b[i].probabilities.size());
    for (std::size_t c = 0; c < a[i].probabilities.size(); ++c) {
      EXPECT_EQ(a[i].probabilities[c], b[i].probabilities[c]);
    }
  }
}

// ---- wire protocol ----------------------------------------------------

TEST(TaskProtocolTest, StreamStartRoundTrip) {
  std::string buffer;
  serve::encode(buffer, serve::StreamStartMsg{42, "speaker"});
  serve::FrameReader reader{buffer};
  const auto msg = std::get<serve::StreamStartMsg>(*reader.next());
  EXPECT_EQ(msg.stream_id, 42u);
  EXPECT_EQ(msg.model_name, "speaker");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TaskProtocolTest, StreamStartEmptyNameUsesV1ShortForm) {
  // An empty model name encodes to the v1 payload (stream id only), so
  // old decoders never see the name field; and the decoder accepts that
  // short payload, so old encoders interoperate with this build.
  const std::string frame =
      serve::encode_one(serve::StreamStartMsg{7, ""});
  EXPECT_EQ(frame.size(), 4u + 1u + 8u);  // len | type | u64 stream id

  serve::FrameReader reader{frame};
  const auto msg = std::get<serve::StreamStartMsg>(*reader.next());
  EXPECT_EQ(msg.stream_id, 7u);
  EXPECT_TRUE(msg.model_name.empty());
}

// ---- registry duplicate-name semantics --------------------------------

TEST(TaskRegistryTest, DuplicateNameSwapsAtomicallyAndKeepsOldAlive) {
  ModelRegistry registry;
  const auto old_model = make_table_model(3, 1);
  const auto new_model = make_table_model(4, 2);

  EXPECT_EQ(registry.add("emotion", old_model), 1u);
  EXPECT_EQ(registry.generation(), 1u);
  const ModelRegistry::Resolved before = registry.resolve("emotion");
  EXPECT_EQ(before.model, old_model);
  EXPECT_EQ(before.version, 1u);

  // Re-registering the name is the hot-swap: new version visible,
  // generation bumped so sessions re-resolve.
  EXPECT_EQ(registry.add("emotion", new_model), 2u);
  EXPECT_EQ(registry.generation(), 2u);
  const ModelRegistry::Resolved after = registry.resolve("emotion");
  EXPECT_EQ(after.model, new_model);
  EXPECT_EQ(after.version, 2u);

  // The old version is not erased: an in-flight session's ModelPtr
  // stays valid and the version remains addressable.
  EXPECT_EQ(before.model->predict_proba(std::vector<double>(24, 0.0)).size(),
            3u);
  EXPECT_EQ(registry.get(1), old_model);

  // stats() exposes the per-name view: active version + count.
  const auto stats = registry.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "emotion");
  EXPECT_EQ(stats[0].active_version, 2u);
  EXPECT_EQ(stats[0].versions, 2u);

  // activate() rolls the name back to the older version.
  registry.activate(1);
  EXPECT_EQ(registry.generation(), 3u);
  EXPECT_EQ(registry.resolve("emotion").model, old_model);
  EXPECT_EQ(registry.stats()[0].active_version, 1u);
}

TEST(TaskRegistryTest, ResolveCarriesRouteAndDefault) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.has(""));
  EXPECT_EQ(registry.resolve("emotion").model, nullptr);

  registry.add("emotion", make_table_model(3, 1));
  registry.add("media", make_image_model(4, 2),
               core::FeatureRoute::kSpectrogramImage);

  EXPECT_TRUE(registry.has(""));
  EXPECT_TRUE(registry.has("media"));
  EXPECT_FALSE(registry.has("nope"));

  // The empty name resolves to the default (first registration) and
  // echoes its real name, so per-task counters aggregate correctly.
  const auto def = registry.resolve("");
  EXPECT_EQ(def.name, "emotion");
  EXPECT_EQ(def.route, core::FeatureRoute::kTableFeatures);
  const auto media = registry.resolve("media");
  EXPECT_EQ(media.route, core::FeatureRoute::kSpectrogramImage);
  EXPECT_EQ(media.version, 2u);
}

// ---- mitigation filter ------------------------------------------------

TEST(MitigationTest, ChunkInvariantAndMatchesOfflineResample) {
  const std::vector<double> signal = default_trace(11);
  tasks::MitigationConfig config;
  config.lowpass_hz = 50.0;
  config.target_rate_hz = 180.0;
  config.validate(kRate);

  tasks::MitigationFilter whole{config, kRate};
  const std::vector<double> reference = whole.push(signal);
  EXPECT_NEAR(whole.output_rate_hz(), 180.0, 1e-12);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{1000}}) {
    tasks::MitigationFilter filter{config, kRate};
    std::vector<double> streamed;
    for (std::size_t i = 0; i < signal.size(); i += chunk) {
      const std::size_t hi = std::min(i + chunk, signal.size());
      const auto out = filter.push(
          std::span<const double>{signal.data() + i, hi - i});
      streamed.insert(streamed.end(), out.begin(), out.end());
    }
    ASSERT_EQ(streamed.size(), reference.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      ASSERT_EQ(streamed[i], reference[i]) << "chunk=" << chunk << " i=" << i;
    }
  }

  // Decimation-only config reproduces dsp::resample_nearest's sample
  // selection (up to the offline tail clamp a stream cannot know).
  tasks::MitigationConfig cap_only;
  cap_only.target_rate_hz = 180.0;
  tasks::MitigationFilter decimator{cap_only, kRate};
  const std::vector<double> streamed = decimator.push(signal);
  const std::vector<double> offline =
      dsp::resample_nearest(signal, kRate, 180.0);
  ASSERT_LE(streamed.size(), offline.size());
  ASSERT_GE(streamed.size() + 2, offline.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i], offline[i]) << "i=" << i;
  }

}

TEST(MitigationTest, ValidateRejectsBadConfigs) {
  tasks::MitigationConfig nyquist;
  nyquist.lowpass_hz = 300.0;  // above kRate/2
  EXPECT_THROW(nyquist.validate(kRate), util::ConfigError);

  tasks::MitigationConfig upsample;
  upsample.target_rate_hz = 1000.0;
  EXPECT_THROW(upsample.validate(kRate), util::ConfigError);

  tasks::MitigationConfig odd;
  odd.lowpass_hz = 50.0;
  odd.lowpass_order = 3;
  EXPECT_THROW(odd.validate(kRate), util::ConfigError);

  EXPECT_TRUE(tasks::MitigationConfig{}.is_noop());
}

TEST(MitigationTest, ApplyRescalesScheduleWithRate) {
  phone::Recording recording;
  recording.rate_hz = kRate;
  recording.accel = default_trace(13);
  recording.schedule.push_back({0, 1, audio::Emotion::kAngry, 8000, 8700});

  tasks::MitigationConfig config;
  config.target_rate_hz = 210.0;
  const phone::Recording out = tasks::apply_mitigation(recording, config);
  EXPECT_NEAR(out.rate_hz, 210.0, 1e-12);
  // Half the rate: half the samples, schedule indices halved with them
  // so core::label_regions still aligns regions to utterances.
  EXPECT_NEAR(static_cast<double>(out.accel.size()),
              static_cast<double>(recording.accel.size()) / 2.0, 2.0);
  EXPECT_NEAR(static_cast<double>(out.schedule[0].start_sample), 4000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(out.schedule[0].end_sample), 4350.0, 2.0);

  // A no-op config is the identity.
  const phone::Recording same =
      tasks::apply_mitigation(recording, tasks::MitigationConfig{});
  EXPECT_EQ(same.accel, recording.accel);
  EXPECT_EQ(same.rate_hz, recording.rate_hz);
}

// ---- fingerprint classifier -------------------------------------------

TEST(FingerprintTest, RecoversClassesAndRoundTrips) {
  const auto model = make_image_model(5, 3);
  const auto* fp = dynamic_cast<const tasks::FingerprintClassifier*>(
      model.get());
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->classes(), 5);
  EXPECT_EQ(fp->dim(), 1024u);

  // A clean template row classifies to its own class with a proper
  // probability vector.
  for (int c = 0; c < 5; ++c) {
    std::vector<double> row(1024, 0.0);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j % 6 == static_cast<std::size_t>(c)) row[j] = 1.0;
    }
    EXPECT_EQ(model->predict(row), c);
    const auto proba = model->predict_proba(row);
    ASSERT_EQ(proba.size(), 5u);
    double sum = 0.0;
    for (const double p : proba) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::max_element(proba.begin(), proba.end()) -
                  proba.begin()),
              static_cast<std::size_t>(c));
  }

  // Serialize -> deserialize -> bit-identical probabilities.
  std::stringstream stream;
  model->serialize(stream);
  tasks::FingerprintClassifier restored;
  restored.deserialize(stream);
  const std::vector<double> probe(1024, 0.25);
  EXPECT_EQ(restored.predict_proba(probe), model->predict_proba(probe));

  // clone() is independent of the original.
  const auto copy = model->clone();
  EXPECT_EQ(copy->predict_proba(probe), model->predict_proba(probe));
}

// ---- task label derivation --------------------------------------------

TEST(TaskSpecTest, BuildDatasetDerivesLabelsFromSchedule) {
  core::ScenarioConfig scenario = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), 29);
  scenario.corpus_fraction = 0.1;

  tasks::TaskTrainConfig config;
  config.scenario = scenario;
  const audio::Corpus corpus{audio::scaled_spec(scenario.dataset, 0.1),
                             scenario.seed};
  const core::ExtractedData data = tasks::capture_mitigated(config);
  ASSERT_GT(data.features.x.size(), 0u);

  // Emotion: passthrough of the capture's labels.
  const ml::Dataset emotion =
      tasks::build_dataset(tasks::emotion_task(), data, corpus);
  EXPECT_EQ(emotion.y, data.features.y);

  // Gender: binary, consistent with the corpus speaker metadata.
  const ml::Dataset gender =
      tasks::build_dataset(tasks::gender_task(), data, corpus);
  ASSERT_EQ(gender.size(), data.features.x.size());
  EXPECT_EQ(gender.class_count, 2);
  for (std::size_t i = 0; i < gender.size(); ++i) {
    const int speaker = data.speaker_ids[i];
    const bool male =
        corpus.speakers()[static_cast<std::size_t>(speaker)].gender ==
        audio::Gender::kMale;
    EXPECT_EQ(gender.y[i], male ? 1 : 0);
  }

  // Speaker: capped label space, rows beyond the cap dropped.
  const ml::Dataset speakers =
      tasks::build_dataset(tasks::speaker_task(2), data, corpus);
  EXPECT_EQ(speakers.class_count, 2);
  for (const int y : speakers.y) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 2);
  }

  // Media needs clip replays; build_dataset refuses it explicitly.
  EXPECT_THROW(tasks::build_dataset(tasks::media_task(), data, corpus),
               util::ConfigError);
}

// ---- golden digests of the task capture paths -------------------------

// FNV-1a-64 over the object bytes of a sequence of doubles: a compact
// fingerprint of every output bit.
std::uint64_t fnv1a64(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : xs) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Every value of a dataset as one sequence: its shape, each row
// (preceded by its length) and the labels.
void append_dataset_bits(const ml::Dataset& d, std::vector<double>& out) {
  out.push_back(static_cast<double>(d.class_count));
  out.push_back(static_cast<double>(d.size()));
  for (const std::vector<double>& row : d.x) {
    out.push_back(static_cast<double>(row.size()));
    out.insert(out.end(), row.begin(), row.end());
  }
  for (const int y : d.y) out.push_back(static_cast<double>(y));
}

std::vector<double> extracted_bits(const core::ExtractedData& data) {
  std::vector<double> out;
  append_dataset_bits(data.features, out);
  for (const std::vector<double>& image : data.spectrograms) {
    out.push_back(static_cast<double>(image.size()));
    out.insert(out.end(), image.begin(), image.end());
  }
  for (const int id : data.speaker_ids) out.push_back(static_cast<double>(id));
  out.push_back(static_cast<double>(data.image_size));
  out.push_back(static_cast<double>(data.regions_detected));
  out.push_back(static_cast<double>(data.utterances_total));
  out.push_back(data.extraction_rate);
  return out;
}

tasks::TaskTrainConfig golden_task_config() {
  tasks::TaskTrainConfig config;
  config.scenario = core::loudspeaker_scenario(audio::tess_spec(),
                                               phone::oneplus_7t(), 29);
  config.scenario.corpus_fraction = 0.1;
  config.media_clips = 4;
  config.media_repetitions = 2;
  return config;
}

// Pins what the task capture paths hand back, with and without a
// mitigation: a change to how capture_mitigated or media_dataset build
// the corpus, seed the recorder or extract moves a digest. The
// constants hold for this toolchain and libm (the synthesis calls sin,
// log and sqrt); a change that means to move bits re-pins them and
// says so.
TEST(TaskGoldenTest, CaptureAndMediaDigestsPinOutputs) {
  tasks::TaskTrainConfig mitigated = golden_task_config();
  mitigated.mitigation.lowpass_hz = 60.0;
  mitigated.mitigation.target_rate_hz = 200.0;
  struct Golden {
    const char* name;
    tasks::TaskTrainConfig config;
    std::uint64_t capture;
    std::uint64_t media;
  };
  for (const Golden& g : {
           Golden{"noop", golden_task_config(), 0x531dce220c3506e2ULL,
                  0xcaf0423ab506ab54ULL},
           Golden{"mitigated", mitigated, 0xfbd21fbc429d67daULL,
                  0xd6a0fc1377b32e4bULL},
       }) {
    const core::ExtractedData data = tasks::capture_mitigated(g.config);
    const ml::Dataset media_set = tasks::media_dataset(g.config);
    ASSERT_GT(data.features.size(), 0u) << g.name;
    ASSERT_GT(media_set.size(), 0u) << g.name;
    const std::uint64_t capture = fnv1a64(extracted_bits(data));
    std::vector<double> media;
    append_dataset_bits(media_set, media);
    const std::uint64_t media_digest = fnv1a64(media);
    EXPECT_EQ(capture, g.capture)
        << g.name << " capture digest=0x" << std::hex << capture;
    EXPECT_EQ(media_digest, g.media)
        << g.name << " media digest=0x" << std::hex << media_digest;
  }
}

// Pins the trained tasks' held-out scores: the split, the fit and the
// scoring of every built-in task.
TEST(TaskGoldenTest, BuiltinTaskScoresArePinned) {
  // Five replays leave every clip a held-out row; two would leave none.
  tasks::TaskTrainConfig config = golden_task_config();
  config.media_repetitions = 5;
  std::vector<double> bits;
  for (const tasks::TrainedTask& task : tasks::train_builtin_tasks(config)) {
    EXPECT_TRUE(task.model) << task.spec.name;
    bits.push_back(task.accuracy);
    bits.push_back(static_cast<double>(task.train_rows));
    bits.push_back(static_cast<double>(task.test_rows));
  }
  const std::uint64_t digest = fnv1a64(bits);
  EXPECT_EQ(digest, 0x787f9fdcf203bdb0ULL) << "digest=0x" << std::hex << digest;
}

// ---- mixed-task serving -----------------------------------------------

TEST(MixedTaskServeTest, BatchParityAcrossModelsAndThreads) {
  // The headline contract: one drain tick batching streams bound to
  // different models (different label spaces AND different feature
  // routes) produces events bit-identical to per-task serial runs.
  const std::vector<std::string> names = {"three", "four", "media"};
  const std::vector<core::FeatureRoute> routes = {
      core::FeatureRoute::kTableFeatures, core::FeatureRoute::kTableFeatures,
      core::FeatureRoute::kSpectrogramImage};
  const std::vector<std::shared_ptr<const ml::Classifier>> models = {
      make_table_model(3, 7), make_table_model(4, 8), make_image_model(5, 9)};

  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kChunk = 256;
  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::size_t m = s % names.size();
    traces.push_back(default_trace(40 + s));
    reference.push_back(
        standalone_events(traces[s], kChunk, models[m], routes[m]));
    ASSERT_GT(reference[s].size(), 0u);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto registry = std::make_shared<ModelRegistry>();
    for (std::size_t m = 0; m < names.size(); ++m) {
      registry->add(names[m], models[m], routes[m]);
    }
    serve::ServeConfig cfg;
    cfg.session.stream = stream_config();
    cfg.session.sample_rate_hz = kRate;
    cfg.session.max_sessions = 16;
    cfg.batcher.shard_count = 8;
    cfg.batcher.queue_capacity = 1024;
    cfg.parallelism = util::Parallelism{.threads = threads};
    ServeService service{cfg, registry};

    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(service.start_stream(s, names[s % names.size()]), Status::kOk);
    }

    std::size_t offset = 0;
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t s = 0; s < kStreams; ++s) {
          const std::size_t i = offset + round * kChunk;
          if (i >= traces[s].size()) continue;
          any = true;
          const std::size_t hi = std::min(i + kChunk, traces[s].size());
          ASSERT_EQ(service.push(s, slice(traces[s], i, hi)), Status::kOk);
        }
      }
      offset += 4 * kChunk;
      service.drain();
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(service.finish_stream(s), Status::kOk);
    }
    service.drain();

    std::vector<std::vector<core::EmotionEvent>> served(kStreams);
    for (auto& event : service.take_events()) {
      served[event.stream_id].push_back(event.event);
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " stream=" + std::to_string(s));
      expect_same_events(served[s], reference[s]);
    }

    // Per-task accounting went to the right counters: two streams per
    // task, every task saw samples and events, and no stream landed on
    // a task outside the registered names.
    const obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(std::count_if(metrics.counters.begin(), metrics.counters.end(),
                            [](const auto& c) {
                              return c.first.starts_with("serve.task.") &&
                                     c.first.ends_with(".streams");
                            }),
              static_cast<std::ptrdiff_t>(names.size()));
    for (const std::string& name : names) {
      SCOPED_TRACE("task=" + name);
      const std::string prefix = "serve.task." + name + ".";
      EXPECT_EQ(metrics.counter(prefix + "streams"), 2u);
      EXPECT_GT(metrics.counter(prefix + "samples"), 0u);
      EXPECT_GT(metrics.counter(prefix + "events"), 0u);
    }
    for (const ModelRegistry::NameInfo& info : registry->stats()) {
      EXPECT_EQ(info.versions, 1u) << info.name;
    }
  }
}

// Batched inference with a real CNN in the mix: streams bound to a
// CnnClassifier (one im2col+GEMM forward per group), two classical
// heads, and the spectrogram fingerprint must all stay bit-identical to
// per-stream serial runs — and once the CNN's batch tensors have grown
// to the steady-state batch size, further drain ticks must not allocate
// tensor storage at all.
TEST(MixedTaskServeTest, CnnBatchParityAndSteadyStateTensorAllocs) {
  const auto make_cnn_model = [](int classes, std::uint64_t seed) {
    util::Rng rng{seed};
    ml::Dataset d;
    d.class_count = classes;
    for (int c = 0; c < classes; ++c) {
      for (int i = 0; i < 8; ++i) {
        std::vector<double> row(24);
        for (double& v : row) v = rng.normal() + 1.5 * c;
        d.x.push_back(std::move(row));
        d.y.push_back(c);
      }
    }
    nn::TrainConfig train;
    train.epochs = 2;
    train.batch_size = 8;
    auto model = std::make_shared<nn::CnnClassifier>(
        nn::CnnClassifier::Arch::kTimefreq, 24, nn::CnnConfig::fast(), train);
    model->fit(d);
    return std::static_pointer_cast<const ml::Classifier>(model);
  };

  const std::vector<std::string> names = {"cnn", "three", "four", "media"};
  const std::vector<core::FeatureRoute> routes = {
      core::FeatureRoute::kTableFeatures, core::FeatureRoute::kTableFeatures,
      core::FeatureRoute::kTableFeatures,
      core::FeatureRoute::kSpectrogramImage};
  const std::vector<std::shared_ptr<const ml::Classifier>> models = {
      make_cnn_model(3, 11), make_table_model(3, 7), make_table_model(4, 8),
      make_image_model(5, 9)};

  constexpr std::size_t kStreams = 8;  // two per task
  constexpr std::size_t kChunk = 256;
  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  std::size_t expected_events = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::size_t m = s % names.size();
    // The two streams of a task share a trace seed so their windows
    // close in the same drain tick: the CNN sees a batch of 2 every
    // tick, making the steady-state alloc assertion below meaningful.
    traces.push_back(default_trace(40 + m));
    reference.push_back(
        standalone_events(traces[s], kChunk, models[m], routes[m]));
    ASSERT_GT(reference[s].size(), 0u);
    expected_events += reference[s].size();
  }

  for (const std::size_t threads : {1u, 8u}) {
    auto registry = std::make_shared<ModelRegistry>();
    for (std::size_t m = 0; m < names.size(); ++m) {
      registry->add(names[m], models[m], routes[m]);
    }
    serve::ServeConfig cfg;
    cfg.session.stream = stream_config();
    cfg.session.sample_rate_hz = kRate;
    cfg.session.max_sessions = 16;
    cfg.batcher.shard_count = 8;
    cfg.batcher.queue_capacity = 1024;
    cfg.parallelism = util::Parallelism{.threads = threads};
    ServeService service{cfg, registry};

    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(service.start_stream(s, names[s % names.size()]), Status::kOk);
    }

    std::size_t offset = 0;
    std::size_t warm_allocs = 0;
    bool warmed = false;
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t s = 0; s < kStreams; ++s) {
          const std::size_t i = offset + round * kChunk;
          if (i >= traces[s].size()) continue;
          any = true;
          const std::size_t hi = std::min(i + kChunk, traces[s].size());
          ASSERT_EQ(service.push(s, slice(traces[s], i, hi)), Status::kOk);
        }
      }
      offset += 4 * kChunk;
      service.drain();
      // The second burst (and its batch-of-2 CNN forward) lands before
      // the trace midpoint; everything after it is steady state.
      if (!warmed && offset >= traces[0].size() / 2 + 4 * kChunk) {
        warmed = true;
        warm_allocs = nn::tensor_alloc_count();
      }
    }
    ASSERT_TRUE(warmed);
    EXPECT_EQ(nn::tensor_alloc_count(), warm_allocs)
        << "steady-state drain ticks must reuse the CNN batch tensors";

    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_EQ(service.finish_stream(s), Status::kOk);
    }
    service.drain();
    EXPECT_EQ(nn::tensor_alloc_count(), warm_allocs)
        << "solo/finish classification must reuse the batch tensors too";

    std::vector<std::vector<core::EmotionEvent>> served(kStreams);
    for (auto& event : service.take_events()) {
      served[event.stream_id].push_back(event.event);
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " stream=" + std::to_string(s));
      expect_same_events(served[s], reference[s]);
    }

    const obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.counter("serve.windows_batched"), expected_events);
    EXPECT_GT(metrics.histogram("serve.batch_size").count, 0u);
  }
}

TEST(MixedTaskServeTest, UnknownModelRejectedBeforeEnqueue) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("emotion", make_table_model(3, 7));
  serve::ServeConfig cfg;
  cfg.session.stream = stream_config();
  cfg.session.sample_rate_hz = kRate;
  cfg.parallelism = util::Parallelism{.threads = 1};
  ServeService service{cfg, registry};

  EXPECT_EQ(service.start_stream(1, "bogus"), Status::kError);
  EXPECT_EQ(service.start_stream(1, "emotion"), Status::kOk);
  EXPECT_EQ(service.start_stream(2, ""), Status::kOk);  // default binding
  service.drain();
  EXPECT_EQ(service.metrics_snapshot().counter("serve.accepted"), 2u);

  // Over the wire: the StreamStart frame acks kError for the unknown
  // name and kOk for a known one.
  const std::string request =
      serve::encode_one(serve::StreamStartMsg{3, "nope"}) +
      serve::encode_one(serve::StreamStartMsg{3, "emotion"});
  const std::string reply = service.handle(request);
  serve::FrameReader acks{reply};
  EXPECT_EQ(std::get<serve::AckMsg>(*acks.next()).status, Status::kError);
  EXPECT_EQ(std::get<serve::AckMsg>(*acks.next()).status, Status::kOk);
}

}  // namespace
