// Tests for the emoleak::serve inference service: wire-protocol
// round-trips and malformed-frame rejection, shard fan-out in a drain,
// registry versioning/hot-swap, batching determinism at 1/2/8
// threads, the session table's capacity and lifecycle, overload
// rejection, and a serve-path property over random chunkings,
// interleavings and restarts. The concurrent-producer test is the TSan
// target for the serving layer (see the sanitizer recipe in
// ROADMAP.md).
#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <thread>
#include <variant>

#include "core/speech_region.h"
#include "core/streaming.h"
#include "ml/dataset.h"
#include "ml/logistic.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace emoleak;
using serve::ModelRegistry;
using serve::ServeService;
using serve::Status;

constexpr double kRate = 420.0;

/// Noise floor + sine bursts, same signal shape as test_streaming.
std::vector<double> trace_with_bursts(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& bursts,
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

/// 60 s with three bursts past the noise-floor warm-up: three events.
std::vector<double> default_trace(std::uint64_t seed) {
  return trace_with_bursts(
      25200, {{8000, 8700}, {13000, 13800}, {20000, 20600}}, seed);
}

core::StreamingConfig stream_config() {
  core::StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  return cfg;
}

/// A classifier over the 24 Table-II features. Training rows are
/// feature-sized blobs — the serving layer needs deterministic
/// predictions, not attack accuracy.
std::shared_ptr<const ml::Classifier> make_model(int classes,
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

serve::ServeConfig service_config(std::size_t threads) {
  serve::ServeConfig cfg;
  cfg.session.stream = stream_config();
  cfg.session.sample_rate_hz = kRate;
  cfg.session.max_sessions = 16;
  cfg.batcher.shard_count = 8;
  cfg.batcher.queue_capacity = 1024;
  cfg.parallelism = util::Parallelism{.threads = threads};
  return cfg;
}

std::vector<double> slice(const std::vector<double>& x, std::size_t lo,
                          std::size_t hi) {
  return {x.begin() + static_cast<std::ptrdiff_t>(lo),
          x.begin() + static_cast<std::ptrdiff_t>(hi)};
}

std::vector<core::EmotionEvent> standalone_events(
    const std::vector<double>& trace, std::size_t chunk,
    std::shared_ptr<const ml::Classifier> model) {
  core::StreamingAttack attack{stream_config(), kRate, std::move(model)};
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < trace.size(); i += chunk) {
    const std::size_t hi = std::min(i + chunk, trace.size());
    auto out =
        attack.push(std::span<const double>{trace.data() + i, hi - i});
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
      // Bit-identical, not approximately equal: batching must never
      // change results.
      EXPECT_EQ(a[i].probabilities[c], b[i].probabilities[c]);
    }
  }
}

// ---- wire protocol ----------------------------------------------------

TEST(ServeProtocolTest, RoundTripsEveryMessageType) {
  core::EmotionEvent event;
  event.start_sample = 100;
  event.end_sample = 400;
  event.predicted_class = 2;
  event.probabilities = {0.125, 0.25, 0.625};

  std::string buffer;
  serve::encode(buffer, serve::ChunkPushMsg{9, {1.0, -2.5, 0.0, 3.25}});
  serve::encode(buffer, serve::StreamFinishMsg{9});
  serve::encode(buffer, serve::EventMsg{9, event});
  serve::encode(buffer, serve::AckMsg{Status::kOverloaded});

  serve::FrameReader reader{buffer};
  const auto push = std::get<serve::ChunkPushMsg>(*reader.next());
  EXPECT_EQ(push.stream_id, 9u);
  EXPECT_EQ(push.samples, (std::vector<double>{1.0, -2.5, 0.0, 3.25}));
  EXPECT_EQ(std::get<serve::StreamFinishMsg>(*reader.next()).stream_id, 9u);
  const auto ev = std::get<serve::EventMsg>(*reader.next());
  EXPECT_EQ(ev.stream_id, 9u);
  EXPECT_EQ(ev.event.start_sample, 100u);
  EXPECT_EQ(ev.event.end_sample, 400u);
  EXPECT_EQ(ev.event.predicted_class, 2);
  EXPECT_EQ(ev.event.probabilities, event.probabilities);
  EXPECT_EQ(std::get<serve::AckMsg>(*reader.next()).status,
            Status::kOverloaded);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeProtocolTest, RejectsMalformedFrames) {
  const std::string valid = serve::encode_one(serve::ChunkPushMsg{1, {1.0}});

  // Truncated header, then truncated payload: on a stream transport a
  // partial trailing frame is a resumable need-more state, not an error
  // (test_net sweeps every split point); only genuinely corrupt frames
  // below throw.
  for (const std::size_t cut : {std::size_t{2}, valid.size() - 3}) {
    serve::FrameReader reader{std::string_view{valid}.substr(0, cut)};
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.needs_more());
    EXPECT_EQ(reader.offset(), 0u);
  }
  // Unknown message types (the type byte sits right after the u32
  // length): 0, the retired stats pair 4/5, and bytes past the last type.
  for (const char type : {0, 4, 5, 13, 99}) {
    SCOPED_TRACE("type=" + std::to_string(type));
    std::string bad_type = valid;
    bad_type[4] = type;
    serve::FrameReader reader{bad_type};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
  // Declared length larger than the message body: trailing junk.
  std::string trailing = serve::encode_one(serve::StreamFinishMsg{1});
  trailing.push_back('\0');
  trailing[0] = static_cast<char>(trailing[0] + 1);
  {
    serve::FrameReader reader{trailing};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
  // Absurd frame length (4 GiB): rejected before any allocation.
  const std::string huge(4, '\xff');
  {
    serve::FrameReader reader{huge};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
  // Sample count claiming more doubles than the payload carries.
  std::string overclaim = serve::encode_one(serve::ChunkPushMsg{1, {}});
  overclaim[4 + 1 + 8] = 0x40;  // claim 64 samples, carry none
  {
    serve::FrameReader reader{overclaim};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
}

TEST(ServeProtocolTest, RoundTripsTelemetryFrames) {
  obs::RegistrySnapshot snapshot;
  snapshot.counters = {{"net.bytes_in", 123456789u}, {"serve.requests", 42u}};
  snapshot.gauges = {{"net.connections_active", -3},
                     {"pool.queue_depth", 17}};
  obs::HistogramSnapshot hist;
  hist.count = 5;
  hist.sum = 1234.5;
  hist.buckets = {{16.0, 2}, {1024.0, 3}};
  snapshot.histograms = {{"serve.drain_latency_ns", hist}};

  std::string buffer;
  serve::encode(buffer, serve::MetricsRequestMsg{});
  serve::encode(buffer, serve::MetricsReplyMsg{snapshot});
  serve::encode(buffer, serve::TraceRequestMsg{});
  serve::encode(buffer,
                serve::TraceReplyMsg{"{\"traceEvents\":[]}", 7});

  serve::FrameReader reader{buffer};
  EXPECT_TRUE(
      std::holds_alternative<serve::MetricsRequestMsg>(*reader.next()));
  const auto reply = std::get<serve::MetricsReplyMsg>(*reader.next());
  EXPECT_EQ(reply.snapshot.counters, snapshot.counters);
  // Gauges ride as two's-complement u64: negatives survive verbatim.
  EXPECT_EQ(reply.snapshot.gauges, snapshot.gauges);
  ASSERT_EQ(reply.snapshot.histograms.size(), 1u);
  EXPECT_EQ(reply.snapshot.histograms[0].first, "serve.drain_latency_ns");
  const obs::HistogramSnapshot& h = reply.snapshot.histograms[0].second;
  EXPECT_EQ(h.sum, 1234.5);
  ASSERT_EQ(h.buckets.size(), 2u);
  EXPECT_EQ(h.buckets[0].upper, 16.0);
  EXPECT_EQ(h.buckets[0].count, 2u);
  // The decoder derives count from the buckets it actually read, so a
  // tampered header count cannot disagree with the data.
  EXPECT_EQ(h.count, 5u);
  EXPECT_TRUE(std::holds_alternative<serve::TraceRequestMsg>(*reader.next()));
  const auto trace = std::get<serve::TraceReplyMsg>(*reader.next());
  EXPECT_EQ(trace.trace_json, "{\"traceEvents\":[]}");
  EXPECT_EQ(trace.dropped_spans, 7u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeProtocolTest, TelemetryTypesAreVersionCompatibleAppends) {
  // Every type byte is pinned: peers from any revision agree on the
  // types they share. Bytes 4, 5 and 6 stay retired. An old peer that
  // never learned the telemetry types sees 9..12 as unknown and throws
  // DataError — exactly the downgrade signal handle_frames turns into a
  // kError ack.
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kChunkPush), 1);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kStreamFinish), 2);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kEvent), 3);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kAck), 7);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kStreamStart), 8);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kMetricsRequest), 9);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kMetricsReply), 10);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kTraceRequest), 11);
  EXPECT_EQ(static_cast<std::uint8_t>(serve::MsgType::kTraceReply), 12);

  // Hand-built kMetricsReply with empty sections — the shortest valid
  // v4 body a minimal peer could send. len = type + 3 empty u32 counts.
  std::string minimal;
  minimal += '\x0d';
  minimal += '\x00';
  minimal += '\x00';
  minimal += '\x00';  // u32 len = 13
  minimal += '\x0a';  // kMetricsReply
  minimal.append(12, '\x00');  // three zero counts
  serve::FrameReader reader{minimal};
  const auto msg = reader.next();
  ASSERT_TRUE(msg.has_value());
  const auto& reply = std::get<serve::MetricsReplyMsg>(*msg);
  EXPECT_TRUE(reply.snapshot.counters.empty());
  EXPECT_TRUE(reply.snapshot.histograms.empty());
}

// ---- shard drain ------------------------------------------------------

std::uint64_t pool_tasks() {
  return obs::Registry::instance().counter("pool.tasks").value();
}

TEST(ServeServiceTest, OneBusyShardDrainsOnTheCallingThread) {
  // Nearly every served drain holds one stream's chunks: they run
  // inline on the caller, and the pool never sees them.
  const auto model = make_model(3, 7);
  const std::vector<double> chunk(64, 9.81);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    ServeService service{service_config(threads), registry};
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_EQ(service.push(7, chunk), Status::kOk);
    }
    const std::uint64_t tasks = pool_tasks();
    EXPECT_EQ(service.drain(), 5u);
    EXPECT_EQ(pool_tasks(), tasks) << "threads=" << threads;
  }
}

TEST(ServeServiceTest, SeveralBusyShardsStillFanOut) {
  const auto model = make_model(3, 7);
  const std::vector<double> chunk(64, 9.81);
  for (const std::size_t threads : {2u, 4u}) {
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    const serve::ServeConfig cfg = service_config(threads);
    ServeService service{cfg, registry};
    // Three streams on three distinct shards, four chunks each.
    std::vector<std::uint64_t> streams;
    std::vector<bool> taken(cfg.batcher.shard_count, false);
    for (std::uint64_t id = 0; streams.size() < 3; ++id) {
      const std::size_t shard = serve::shard_of(id, cfg.batcher.shard_count);
      if (taken[shard]) continue;
      taken[shard] = true;
      streams.push_back(id);
    }
    for (std::size_t seq = 0; seq < 4; ++seq) {
      for (const std::uint64_t id : streams) {
        ASSERT_EQ(service.push(id, chunk), Status::kOk);
      }
    }
    const std::uint64_t tasks = pool_tasks();
    EXPECT_EQ(service.drain(), 12u);
    // One pool task per busy shard, none for the five idle ones.
    EXPECT_EQ(pool_tasks() - tasks, 3u) << "threads=" << threads;
    EXPECT_EQ(service.metrics_snapshot().counter("serve.chunks_processed"),
              12u);
  }
}

// ---- model registry ---------------------------------------------------

TEST(ModelRegistryTest, VersionsActivateAndSwap) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);

  const auto v1 = registry.add("three", make_model(3, 1));
  const auto v2 = registry.add("four", make_model(4, 2));
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.generation(), 1u);  // first model auto-activates
  EXPECT_EQ(registry.current(), registry.get(1));

  registry.activate(2);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.current(), registry.get(2));

  EXPECT_EQ(registry.get(0), nullptr);
  EXPECT_EQ(registry.get(3), nullptr);
  EXPECT_THROW(registry.activate(3), util::DataError);
  EXPECT_THROW(registry.add("null", nullptr), util::DataError);

  const auto info = registry.list();
  ASSERT_EQ(info.size(), 2u);
  EXPECT_EQ(info[0].name, "three");
  EXPECT_EQ(info[0].classifier, "Logistic");
  EXPECT_EQ(info[1].version, 2u);
}

// ---- service ----------------------------------------------------------

TEST(ServeServiceTest, BatchingIsDeterministicAcrossThreadCounts) {
  const auto model = make_model(3, 7);
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kChunk = 256;

  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  std::size_t expected_events = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    traces.push_back(default_trace(40 + s));
    reference.push_back(standalone_events(traces[s], kChunk, model));
    expected_events += reference[s].size();
  }
  ASSERT_GT(expected_events, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    ServeService service{service_config(threads), registry};

    // Interleave the streams chunk-by-chunk with periodic drains, the
    // way concurrent devices land on a real deployment.
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
    const obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.counter("serve.rejected_overload"), 0u);
    EXPECT_EQ(metrics.counter("serve.events_emitted"), expected_events);
  }
}

// The batched forward must be bit-identical to a standalone
// StreamingAttack at every thread count. Each drain runs one forward
// per (model, width) group, so windows that close in the same tick
// share a multi-row batch. The 4-round interleave between drains makes
// windows ready mid-tick at staggered offsets.
TEST(ServeServiceTest, BatchedForwardBitParityAcrossBatchSizesAndThreads) {
  const auto model = make_model(3, 7);
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kChunk = 256;

  // Shorter trace than default_trace (two bursts past the 2.5 s noise
  // warm-up) keeps the thread-count sweep inside a sane test budget.
  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  std::size_t expected_events = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    traces.push_back(
        trace_with_bursts(12600, {{4500, 5200}, {8000, 8800}}, 70 + s));
    reference.push_back(standalone_events(traces[s], kChunk, model));
    expected_events += reference[s].size();
  }
  ASSERT_GT(expected_events, 0u);

  const auto run_service = [&](serve::ServeConfig cfg) {
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    ServeService service{cfg, registry};
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
          EXPECT_EQ(service.push(s, slice(traces[s], i, hi)), Status::kOk);
        }
      }
      offset += 4 * kChunk;
      service.drain();
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      EXPECT_EQ(service.finish_stream(s), Status::kOk);
    }
    service.drain();

    std::vector<std::vector<core::EmotionEvent>> served(kStreams);
    for (auto& event : service.take_events()) {
      served[event.stream_id].push_back(event.event);
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      SCOPED_TRACE("stream=" + std::to_string(s));
      expect_same_events(served[s], reference[s]);
    }
    return service.metrics_snapshot();
  };

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const obs::RegistrySnapshot metrics = run_service(service_config(threads));
    EXPECT_EQ(metrics.counter("serve.rejected_overload"), 0u);
    EXPECT_EQ(metrics.counter("serve.events_emitted"), expected_events);
    // Every classified window went through the batch step.
    EXPECT_EQ(metrics.counter("serve.windows_batched"), expected_events);
    // Parity must cover multi-row forwards, not only one-window
    // batches: the largest recorded batch (exact below 8 rows) has
    // more than one row.
    const obs::HistogramSnapshot& batch =
        metrics.histogram("serve.batch_size");
    EXPECT_GT(batch.count, 0u);
    EXPECT_GT(batch.quantile(1.0), 1.0);
  }
}

// A finish that lands in the same drain as the pushes that closed the
// stream's windows: the session leaves the table before the batch
// step, yet its pending windows still go through it, bit-identical.
TEST(ServeServiceTest, FinishWithPendingWindowsBatchesBitIdentical) {
  const auto model = make_model(3, 7);
  const auto trace = default_trace(40);
  constexpr std::size_t kChunk = 512;
  const auto reference = standalone_events(trace, kChunk, model);
  ASSERT_GT(reference.size(), 0u);

  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", model);
  ServeService service{service_config(2), registry};
  for (std::size_t i = 0; i < trace.size(); i += kChunk) {
    const std::size_t hi = std::min(i + kChunk, trace.size());
    ASSERT_EQ(service.push(0, slice(trace, i, hi)), Status::kOk);
  }
  // No drain between the pushes and the finish: the shard processes the
  // whole stream FIFO (pushes, then finish) inside one drain.
  ASSERT_EQ(service.finish_stream(0), Status::kOk);
  service.drain();

  std::vector<core::EmotionEvent> served;
  for (auto& event : service.take_events()) served.push_back(event.event);
  expect_same_events(served, reference);

  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.windows_batched"), reference.size());
}

// A stream id that finishes and restarts inside one drain: the finished
// session's events come first, then the live new session's, each
// matching a standalone run, at any thread count.
TEST(ServeServiceTest, StreamRestartedInOneDrainKeepsOrder) {
  const auto model = make_model(3, 7);
  const auto trace_a = default_trace(41);
  const auto trace_b = default_trace(42);
  constexpr std::size_t kChunk = 512;
  std::vector<core::EmotionEvent> reference =
      standalone_events(trace_a, kChunk, model);
  ASSERT_FALSE(reference.empty());
  for (const auto& event : standalone_events(trace_b, kChunk, model)) {
    reference.push_back(event);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    ServeService service{service_config(threads), registry};
    // Other streams share the drain, so the batch mixes ids.
    for (const std::uint64_t other : {1u, 3u}) {
      ASSERT_EQ(service.push(other, slice(trace_b, 0, 9000)), Status::kOk);
    }
    for (const auto* trace : {&trace_a, &trace_b}) {
      for (std::size_t i = 0; i < trace->size(); i += kChunk) {
        const std::size_t hi = std::min(i + kChunk, trace->size());
        ASSERT_EQ(service.push(2, slice(*trace, i, hi)), Status::kOk);
      }
      if (trace == &trace_a) {
        ASSERT_EQ(service.finish_stream(2), Status::kOk);
      }
    }
    std::vector<core::EmotionEvent> served;
    const auto collect = [&service, &served] {
      for (auto& event : service.take_events()) {
        if (event.stream_id == 2) served.push_back(event.event);
      }
    };
    service.drain();  // the second run of stream 2 is still open
    collect();
    EXPECT_EQ(service.metrics_snapshot().gauge("serve.sessions.active"), 3);
    ASSERT_EQ(service.finish_stream(2), Status::kOk);
    service.drain();
    collect();
    expect_same_events(served, reference);
    const obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 4u);
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
  }
}

TEST(ServeServiceTest, OverloadRejectsInsteadOfQueueing) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  serve::ServeConfig cfg = service_config(1);
  cfg.batcher.shard_count = 1;
  cfg.batcher.queue_capacity = 2;
  ServeService service{cfg, registry};

  const std::vector<double> chunk(64, 9.81);
  EXPECT_EQ(service.push(1, chunk), Status::kOk);
  EXPECT_EQ(service.push(1, chunk), Status::kOk);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.push(1, chunk), Status::kOverloaded);
  }
  // Refused requests leave no trace: no session for a push or start
  // that would have opened one, and stream 1's stays open.
  EXPECT_EQ(service.push(2, chunk), Status::kOverloaded);
  EXPECT_EQ(service.start_stream(3, ""), Status::kOverloaded);
  EXPECT_EQ(service.finish_stream(1), Status::kOverloaded);
  obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.requests"), 8u);
  EXPECT_EQ(metrics.counter("serve.accepted"), 2u);
  EXPECT_EQ(metrics.counter("serve.rejected_overload"), 6u);
  // Admission created stream 1's session; the gauge counts it before
  // any drain has run.
  EXPECT_EQ(metrics.counter("serve.sessions.created"), 1u);
  EXPECT_EQ(metrics.gauge("serve.sessions.active"), 1);

  // A drain empties the queue; the service recovers without losing the
  // admitted work.
  EXPECT_EQ(service.drain(), 2u);
  EXPECT_EQ(service.push(1, chunk), Status::kOk);
  metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.chunks_processed"), 2u);
  EXPECT_EQ(metrics.counter("serve.rejected_overload"), 6u);
  EXPECT_EQ(metrics.counter("serve.sessions.created"), 1u);
  EXPECT_EQ(metrics.gauge("serve.sessions.active"), 1);
}

TEST(ServeServiceTest, SessionCapacityFreedByFinish) {
  // A stream that would open a session past max_sessions is refused at
  // admission with kNoCapacity, so a chunk acked kOk is never dropped:
  // at any thread count, kOk chunk acks == serve.chunks_processed.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", make_model(3, 7));
    serve::ServeConfig cfg = service_config(threads);
    cfg.session.max_sessions = 2;
    ServeService service{cfg, registry};

    const std::vector<double> chunk(64, 9.81);
    std::uint64_t ok_chunks = 0;
    std::uint64_t no_capacity = 0;
    const auto push = [&](std::uint64_t stream_id) {
      const Status status = service.push(stream_id, chunk);
      ok_chunks += status == Status::kOk ? 1 : 0;
      no_capacity += status == Status::kNoCapacity ? 1 : 0;
      return status;
    };

    ASSERT_EQ(push(1), Status::kOk);
    ASSERT_EQ(push(2), Status::kOk);
    EXPECT_EQ(push(3), Status::kNoCapacity);
    EXPECT_EQ(service.start_stream(3, ""), Status::kNoCapacity);
    ++no_capacity;
    // Admission created sessions 1 and 2 and nothing for the refusals:
    // the gauge counts admitted, unreleased sessions before any drain.
    obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 2u);
    service.drain();
    metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 2u);

    // Table full, however many drains pass: only a finish frees a slot.
    service.drain();
    EXPECT_EQ(push(3), Status::kNoCapacity);
    // Over the wire the refusal carries a back-off.
    const std::string reply =
        service.handle(serve::encode_one(serve::ChunkPushMsg{3, chunk}));
    serve::FrameReader reader{reply};
    const auto ack = std::get<serve::AckMsg>(*reader.next());
    EXPECT_EQ(ack.status, Status::kNoCapacity);
    EXPECT_EQ(ack.retry_after_ms, serve::kRetryAfterMs);
    ++no_capacity;

    // A finished stream holds its slot until the drain that processes
    // its finish ends; then stream 3 takes it.
    ASSERT_EQ(service.finish_stream(1), Status::kOk);
    EXPECT_EQ(push(3), Status::kNoCapacity);
    metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 2u);
    service.drain();
    EXPECT_EQ(service.metrics_snapshot().gauge("serve.sessions.active"), 1);
    EXPECT_EQ(push(3), Status::kOk);
    metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 3u);
    service.drain();
    metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
    EXPECT_EQ(metrics.counter("serve.sessions.created"), 3u);

    // Churn through the two slots: five stream ids take turns, some
    // finish and restart, drains fall between.
    for (std::uint64_t round = 0; round < 60; ++round) {
      const std::uint64_t stream_id = 10 + round % 5;
      (void)push(stream_id);
      if (round % 3 == 2) {
        ASSERT_EQ(service.finish_stream(stream_id), Status::kOk);
      }
      if (round % 4 == 3) service.drain();
    }
    service.drain();
    metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.counter("serve.chunks_processed"), ok_chunks);
    EXPECT_EQ(metrics.counter("serve.rejected_capacity"), no_capacity);
    EXPECT_GT(no_capacity, 3u);
  }

  // A full table is checked before a full shard: a push that would open
  // a session while both are full is refused for capacity, not load.
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  serve::ServeConfig cfg = service_config(1);
  cfg.session.max_sessions = 2;
  cfg.batcher.shard_count = 1;
  cfg.batcher.queue_capacity = 2;
  ServeService service{cfg, registry};
  const std::vector<double> chunk(64, 9.81);
  ASSERT_EQ(service.push(1, chunk), Status::kOk);
  ASSERT_EQ(service.push(2, chunk), Status::kOk);
  EXPECT_EQ(service.push(3, chunk), Status::kNoCapacity);
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.rejected_capacity"), 1u);
  EXPECT_EQ(metrics.counter("serve.rejected_overload"), 0u);
}

TEST(ServeServiceTest, SecondStreamThroughSingleSlotMatchesStandalone) {
  // Drive stream A through the only slot and finish it, then drive
  // stream B through the same slot: B's session must behave exactly
  // like a standalone attack.
  const auto model = make_model(3, 7);
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", model);
  serve::ServeConfig cfg = service_config(1);
  cfg.session.max_sessions = 1;
  ServeService service{cfg, registry};

  const auto trace_a = default_trace(91);
  const auto trace_b = default_trace(92);
  constexpr std::size_t kChunk = 512;

  for (std::size_t i = 0; i < trace_a.size(); i += kChunk) {
    const std::size_t hi = std::min(i + kChunk, trace_a.size());
    ASSERT_EQ(service.push(1, slice(trace_a, i, hi)), Status::kOk);
  }
  ASSERT_EQ(service.finish_stream(1), Status::kOk);
  service.drain();
  EXPECT_FALSE(service.take_events().empty());

  for (std::size_t i = 0; i < trace_b.size(); i += kChunk) {
    const std::size_t hi = std::min(i + kChunk, trace_b.size());
    ASSERT_EQ(service.push(2, slice(trace_b, i, hi)), Status::kOk);
  }
  ASSERT_EQ(service.finish_stream(2), Status::kOk);
  service.drain();

  std::vector<core::EmotionEvent> served;
  for (auto& event : service.take_events()) {
    ASSERT_EQ(event.stream_id, 2u);
    served.push_back(event.event);
  }
  expect_same_events(served, standalone_events(trace_b, kChunk, model));
  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.sessions.created"), 2u);
  EXPECT_EQ(metrics.counter("serve.rejected_capacity"), 0u);
}

TEST(ServeServiceTest, ModelHotSwapAppliesToLaterRegions) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("three-class", make_model(3, 7));
    registry->add("four-class", make_model(4, 8));
    ServeService service{service_config(threads), registry};

    const auto trace = default_trace(70);
    constexpr std::size_t kChunk = 256;
    const auto push_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; i += kChunk) {
        ASSERT_EQ(service.push(1, slice(trace, i, std::min(i + kChunk, hi))),
                  Status::kOk);
      }
    };

    // First burst under v1, then an in-process swap, then the rest:
    // regions closed before the swap keep their 3-class distribution,
    // later regions get the 4-class model.
    push_range(0, 12000);
    service.drain();
    registry->activate(2);
    push_range(12000, trace.size());
    ASSERT_EQ(service.finish_stream(1), Status::kOk);
    service.drain();

    const auto events = service.take_events();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events.front().event.probabilities.size(), 3u);
    EXPECT_EQ(events.back().event.probabilities.size(), 4u);
    EXPECT_EQ(registry->generation(), 2u);
  }
}

TEST(ServeServiceTest, WireTransportEndToEnd) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  ServeService service{service_config(1), registry};

  const auto trace = default_trace(51);
  std::string request;
  for (std::size_t i = 0; i < trace.size(); i += 512) {
    const std::size_t hi = std::min(i + 512, trace.size());
    serve::encode(request, serve::ChunkPushMsg{3, slice(trace, i, hi)});
  }
  serve::encode(request, serve::StreamFinishMsg{3});
  serve::encode(request, serve::MetricsRequestMsg{});

  const std::string reply = service.handle(request);
  serve::FrameReader acks{reply};
  std::size_t ok = 0;
  bool saw_metrics = false;
  while (auto msg = acks.next()) {
    if (const auto* ack = std::get_if<serve::AckMsg>(&*msg)) {
      EXPECT_EQ(ack->status, Status::kOk);
      ++ok;
    } else {
      const auto& snapshot = std::get<serve::MetricsReplyMsg>(*msg).snapshot;
      EXPECT_EQ(snapshot.counter("serve.accepted"), ok);
      saw_metrics = true;
    }
  }
  EXPECT_TRUE(saw_metrics);

  service.drain();
  const std::string event_bytes = service.poll_events();
  serve::FrameReader events{event_bytes};
  std::size_t count = 0;
  while (auto msg = events.next()) {
    EXPECT_EQ(std::get<serve::EventMsg>(*msg).stream_id, 3u);
    ++count;
  }
  EXPECT_EQ(count, standalone_events(trace, 512, registry->current()).size());
}

TEST(ServeServiceTest, MetricsRequestAnswersWithLiveCounters) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  ServeService service{service_config(1), registry};

  const auto trace = default_trace(52);
  const auto reference = standalone_events(trace, 512, registry->current());
  ASSERT_FALSE(reference.empty());
  std::string request;
  for (std::size_t i = 0; i < trace.size(); i += 512) {
    const std::size_t hi = std::min(i + 512, trace.size());
    serve::encode(request, serve::ChunkPushMsg{4, slice(trace, i, hi)});
  }
  serve::encode(request, serve::StreamFinishMsg{4});
  (void)service.handle(request);
  service.drain();
  (void)service.take_events();
  // A second stream stays open, so the active gauge reads nonzero.
  ASSERT_EQ(service.push(5, slice(trace, 0, 512)), Status::kOk);
  service.drain();

  const std::string reply =
      service.handle(serve::encode_one(serve::MetricsRequestMsg{}));
  serve::FrameReader frames{reply};
  const auto msg = frames.next();
  ASSERT_TRUE(msg.has_value());
  const auto& snapshot = std::get<serve::MetricsReplyMsg>(*msg).snapshot;

  // Every name a scraper (perfbench, emoleak_cli --scrape) reads is on
  // the wire, with the values of the in-process snapshot.
  const auto has = [](const auto& entries, const std::string& name) {
    return std::any_of(entries.begin(), entries.end(),
                       [&name](const auto& e) { return e.first == name; });
  };
  for (const char* name :
       {"serve.requests", "serve.accepted", "serve.rejected_overload",
        "serve.rejected_capacity", "serve.chunks_processed",
        "serve.samples_processed", "serve.events_emitted", "serve.drains",
        "serve.windows_batched", "serve.sessions.created",
        "serve.task.m.streams",
        "serve.task.m.samples", "serve.task.m.events"}) {
    EXPECT_TRUE(has(snapshot.counters, name)) << name;
  }
  EXPECT_TRUE(has(snapshot.gauges, "serve.sessions.active"));
  for (const char* name :
       {"serve.drain_latency_ns", "serve.e2e_latency_ns", "serve.batch_size",
        "serve.stage.fifo_wait_ns", "serve.task.m.region_ns"}) {
    EXPECT_TRUE(has(snapshot.histograms, name)) << name;
  }
  const obs::RegistrySnapshot local = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counter("serve.requests"),
            local.counter("serve.requests"));

  // Session lifecycle: two streams created, one finished, one open.
  EXPECT_EQ(snapshot.counter("serve.sessions.created"), 2u);
  EXPECT_EQ(snapshot.gauge("serve.sessions.active"), 1);

  // Per-task traffic: both streams bound to the default model "m".
  EXPECT_EQ(snapshot.counter("serve.task.m.streams"), 2u);
  EXPECT_EQ(snapshot.counter("serve.task.m.samples"), trace.size() + 512);
  EXPECT_EQ(snapshot.counter("serve.task.m.events"),
            snapshot.counter("serve.events_emitted"));

  // The reply merges in the process-global registry (workspace/pool
  // counters), so one scrape covers the whole process.
  EXPECT_TRUE(std::any_of(
      snapshot.counters.begin(), snapshot.counters.end(), [](const auto& c) {
        return c.first.rfind("pool.", 0) == 0 ||
               c.first.rfind("workspace.", 0) == 0;
      }));

  // The e2e histogram (chunk arrival -> event encoded) counts exactly
  // the events that left through take_events.
  const obs::HistogramSnapshot& e2e = snapshot.histogram("serve.e2e_latency_ns");
  EXPECT_EQ(e2e.count, reference.size());
  EXPECT_EQ(e2e.count, snapshot.counter("serve.events_emitted"));

  // The shard-FIFO wait (arrival stamp -> process()) counts every
  // stamped request: each chunk and stream 4's finish.
  const obs::HistogramSnapshot& fifo =
      snapshot.histogram("serve.stage.fifo_wait_ns");
  EXPECT_EQ(fifo.count, snapshot.counter("serve.chunks_processed") + 1);
}

TEST(ServeServiceTest, ReplyTypesSentToServerGetErrorAck) {
  // Protocol misuse, not corruption: a peer streaming server-to-client
  // types at the service gets kError acks and stays connected.
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  ServeService service{service_config(1), registry};

  std::string request;
  serve::encode(request, serve::MetricsReplyMsg{});
  serve::encode(request, serve::TraceReplyMsg{"{}", 0});
  const serve::HandleResult result = service.handle_frames(request);
  EXPECT_FALSE(result.corrupt);
  EXPECT_EQ(result.frames, 2u);

  serve::FrameReader acks{result.reply};
  std::size_t errors = 0;
  while (auto msg = acks.next()) {
    EXPECT_EQ(std::get<serve::AckMsg>(*msg).status, Status::kError);
    ++errors;
  }
  EXPECT_EQ(errors, 2u);
}

TEST(ServeServiceTest, NonFiniteSamplesAreRejectedBeforeTheSession) {
  // One NaN sample used to poison a session's envelope for good (no
  // more events, ever). The wire decoder treats a non-finite sample as
  // a corrupt frame; the typed push() refuses the chunk with kError
  // before it is queued, so the stream carries on as if never sent.
  const std::vector<double> bad_values = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const double bad : bad_values) {
    const std::string frame =
        serve::encode_one(serve::ChunkPushMsg{1, {9.81, bad, 9.81}});
    serve::FrameReader reader{frame};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }

  auto registry = std::make_shared<ModelRegistry>();
  const auto model = make_model(3, 7);
  registry->add("m", model);
  ServeService service{service_config(2), registry};

  // Over the wire: earlier frames keep their acks, the offender gets
  // kError and ends the batch (the transport closes that connection).
  std::string bytes;
  serve::encode(bytes, serve::ChunkPushMsg{1, {9.81, 9.81}});
  serve::encode(bytes, serve::ChunkPushMsg{2, {9.81, bad_values[0]}});
  serve::encode(bytes, serve::ChunkPushMsg{3, {9.81}});  // never reached
  const serve::HandleResult result = service.handle_frames(bytes);
  EXPECT_TRUE(result.corrupt);
  EXPECT_EQ(result.frames, 1u);
  serve::FrameReader acks{result.reply};
  EXPECT_EQ(std::get<serve::AckMsg>(*acks.next()).status, Status::kOk);
  EXPECT_EQ(std::get<serve::AckMsg>(*acks.next()).status, Status::kError);
  EXPECT_FALSE(acks.next().has_value());

  // In process: a poisoned chunk mid-stream is refused and the stream's
  // events stay bit-identical to a standalone run that never saw it.
  const auto trace = default_trace(11);
  constexpr std::size_t kChunk = 500;
  for (std::size_t i = 0; i < trace.size(); i += kChunk) {
    if (i == 10 * kChunk) {
      for (const double bad : bad_values) {
        std::vector<double> poisoned = slice(trace, i, i + kChunk);
        poisoned[kChunk / 2] = bad;
        EXPECT_EQ(service.push(7, std::move(poisoned)), Status::kError);
      }
    }
    const std::size_t hi = std::min(i + kChunk, trace.size());
    ASSERT_EQ(service.push(7, slice(trace, i, hi)), Status::kOk);
    service.drain();
  }
  ASSERT_EQ(service.finish_stream(7), Status::kOk);
  service.drain();
  std::vector<core::EmotionEvent> served;
  for (serve::EventMsg& msg : service.take_events()) {
    if (msg.stream_id == 7) served.push_back(std::move(msg.event));
  }
  expect_same_events(served, standalone_events(trace, kChunk, model));
}

// ---- serve-path property ----------------------------------------------

/// A chunk length in [1, 2000], log-uniform: most chunks are short, a
/// few come near the ceiling.
std::size_t random_chunk(util::Rng& rng) {
  return static_cast<std::size_t>(std::exp(rng.uniform(0.0, std::log(2000.0))));
}

// Whatever the chunking, the interleaving of streams, the drain points
// and the finish-then-restart of stream ids, every run of a stream id is
// served bit-identically to a standalone StreamingAttack fed the run's
// samples whole, at any thread count. Between requests,
// serve.sessions.active counts the admitted, unreleased sessions.
TEST(ServePropertyTest, RandomChunkingInterleavingAndRestartsMatchStandalone) {
  const auto model = make_model(3, 7);
  constexpr std::uint64_t kStreams = 4;
  util::Rng rng{0x5E12E};

  // Each stream id serves one to three runs. A run is a trace cut at a
  // random length, pushed in random chunks and finished; the next run
  // restarts the id. Half the runs end inside the second burst, so
  // finish() closes their last region.
  struct Op {
    std::size_t run = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool finish = false;
  };
  std::vector<std::vector<double>> runs;
  std::vector<std::vector<Op>> ops(kStreams);
  std::vector<std::vector<core::EmotionEvent>> reference(kStreams);
  for (std::uint64_t s = 0; s < kStreams; ++s) {
    for (std::uint64_t r = 1 + rng.uniform_int(3); r > 0; --r) {
      std::vector<double> trace = trace_with_bursts(
          12600, {{4500, 5200}, {8000, 8800}}, 1000 + runs.size());
      trace.resize(rng.uniform_int(2) == 0 ? 8100 + rng.uniform_int(700)
                                           : 6000 + rng.uniform_int(6601));
      for (const auto& event : standalone_events(trace, trace.size(), model)) {
        reference[s].push_back(event);
      }
      for (std::size_t i = 0; i < trace.size();) {
        const std::size_t hi = std::min(trace.size(), i + random_chunk(rng));
        ops[s].push_back({runs.size(), i, hi, false});
        i = hi;
      }
      ops[s].push_back({runs.size(), 0, 0, true});
      runs.push_back(std::move(trace));
    }
  }

  // One interleaving for every thread count: at each step a random
  // stream with requests left sends its next one; a drain follows one
  // step in four, and half of those drains hand their events out.
  struct Step {
    std::uint64_t stream_id = 0;
    bool drain = false;
    bool take = false;
  };
  std::vector<Step> schedule;
  std::vector<std::size_t> next(kStreams, 0);
  for (;;) {
    std::vector<std::uint64_t> live;
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      if (next[s] < ops[s].size()) live.push_back(s);
    }
    if (live.empty()) break;
    const std::uint64_t s = live[rng.uniform_int(live.size())];
    ++next[s];
    const bool drain = rng.uniform_int(4) == 0;
    schedule.push_back({s, drain, drain && rng.uniform_int(2) == 0});
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto registry = std::make_shared<ModelRegistry>();
    registry->add("m", model);
    ServeService service{service_config(threads), registry};
    std::vector<std::vector<core::EmotionEvent>> served(kStreams);
    const auto take = [&service, &served] {
      for (serve::EventMsg& msg : service.take_events()) {
        served[msg.stream_id].push_back(std::move(msg.event));
      }
    };
    // Model of the table: which ids have an open session, and how many
    // finished sessions wait for the next drain.
    std::vector<bool> open(kStreams, false);
    std::int64_t active = 0;
    std::int64_t closing = 0;
    std::fill(next.begin(), next.end(), 0);
    for (const Step& step : schedule) {
      const Op& op = ops[step.stream_id][next[step.stream_id]++];
      if (op.finish) {
        ASSERT_EQ(service.finish_stream(step.stream_id), Status::kOk);
        closing += open[step.stream_id] ? 1 : 0;
        open[step.stream_id] = false;
      } else {
        ASSERT_EQ(service.push(step.stream_id, slice(runs[op.run], op.lo, op.hi)),
                  Status::kOk);
        active += open[step.stream_id] ? 0 : 1;
        open[step.stream_id] = true;
      }
      if (step.drain) {
        service.drain();
        active -= closing;
        closing = 0;
      }
      if (step.take) take();
      ASSERT_EQ(service.metrics_snapshot().gauge("serve.sessions.active"),
                active);
    }
    service.drain();
    take();
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      SCOPED_TRACE("stream=" + std::to_string(s));
      expect_same_events(served[s], reference[s]);
    }
    const obs::RegistrySnapshot metrics = service.metrics_snapshot();
    EXPECT_EQ(metrics.counter("serve.sessions.created"), runs.size());
    EXPECT_EQ(metrics.gauge("serve.sessions.active"), 0);
  }
}

TEST(ServeServiceTest, ConcurrentProducersAndDrainsAreClean) {
  // The TSan target: producers hammer push() from four threads while
  // this thread drains. The test checks the accounting invariants; the
  // sanitizer checks everything else.
  auto registry = std::make_shared<ModelRegistry>();
  registry->add("m", make_model(3, 7));
  serve::ServeConfig cfg = service_config(0);
  cfg.batcher.queue_capacity = 8;  // small on purpose: real overload traffic
  ServeService service{cfg, registry};

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kChunksEach = 60;
  std::atomic<std::size_t> live{kProducers};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &live, p] {
      util::Rng rng{500 + p};
      for (std::size_t i = 0; i < kChunksEach; ++i) {
        std::vector<double> chunk(128, 9.81);
        for (double& v : chunk) v += 0.01 * rng.normal();
        // Producers share stream ids pairwise to exercise same-shard
        // contention; overloads are retried so every chunk lands.
        while (service.push(p % 2, chunk) != Status::kOk) {
          std::this_thread::yield();
        }
      }
      live.fetch_sub(1);
    });
  }
  while (live.load() > 0) {
    service.drain();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  service.drain();

  const obs::RegistrySnapshot metrics = service.metrics_snapshot();
  EXPECT_EQ(metrics.counter("serve.chunks_processed"), kProducers * kChunksEach);
  EXPECT_EQ(metrics.counter("serve.accepted"), kProducers * kChunksEach);
  EXPECT_EQ(metrics.counter("serve.requests"),
            metrics.counter("serve.accepted") +
                metrics.counter("serve.rejected_overload"));
  EXPECT_EQ(metrics.counter("serve.samples_processed"),
            kProducers * kChunksEach * 128);
  EXPECT_EQ(metrics.gauge("serve.sessions.active"), 2);
}

}  // namespace
