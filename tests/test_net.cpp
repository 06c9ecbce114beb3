// Tests for the emoleak::net TCP transport and the wire-protocol
// behaviors the network path depends on: resumable frame reassembly at
// every split point, encode-time frame limits, per-connection corrupt
// isolation, loopback round-trip parity with the in-process transport,
// overload -> retry-after acks, mid-stream disconnect finishing, stream
// ownership released by a finish, graceful shutdown flushing open
// sessions, seeded frame mutants, and random chunkings written at
// random split points. The loopback tests run the
// server's accept/drain loop against concurrent clients and are the
// TSan target for the transport (see the sanitizer recipe in
// ROADMAP.md).
#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numbers>
#include <optional>
#include <thread>
#include <variant>
#include <vector>

#include "core/streaming.h"
#include "ml/dataset.h"
#include "ml/logistic.h"
#include "net/client.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace emoleak;
using serve::Status;

constexpr double kRate = 420.0;

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

std::vector<double> default_trace(std::uint64_t seed) {
  return trace_with_bursts(
      25200, {{8000, 8700}, {13000, 13800}, {20000, 20600}}, seed);
}

core::StreamingConfig stream_config() {
  core::StreamingConfig cfg;
  cfg.detector = core::tabletop_detector_config();
  return cfg;
}

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
      // Bit-identical: the transport must never change results.
      EXPECT_EQ(a[i].probabilities[c], b[i].probabilities[c]);
    }
  }
}

/// A mixed multi-frame buffer covering every client-side message type.
std::string mixed_frames() {
  std::string buffer;
  serve::encode(buffer, serve::ChunkPushMsg{9, {1.0, -2.5, 0.0, 3.25}});
  serve::encode(buffer, serve::StreamFinishMsg{9});
  core::EmotionEvent event;
  event.start_sample = 100;
  event.end_sample = 400;
  event.predicted_class = 2;
  event.probabilities = {0.125, 0.25, 0.625};
  serve::encode(buffer, serve::EventMsg{9, event});
  serve::encode(buffer, serve::MetricsRequestMsg{});
  serve::encode(buffer, serve::StreamStartMsg{9, "fingerprint"});
  serve::encode(buffer, serve::AckMsg{Status::kOverloaded, 3});
  return buffer;
}

/// Decodes a whole buffer, re-encoding each message — byte-for-byte
/// comparable across transports.
std::vector<std::string> decode_reencode_whole(std::string_view bytes) {
  std::vector<std::string> out;
  serve::FrameReader reader{bytes};
  while (auto msg = reader.next()) out.push_back(serve::encode_one(*msg));
  EXPECT_FALSE(reader.needs_more());
  return out;
}

// ---- resumable framing ------------------------------------------------

TEST(ResumableFramingTest, SplitPointSweepIsBitIdentical) {
  const std::string buffer = mixed_frames();
  const std::vector<std::string> whole = decode_reencode_whole(buffer);
  ASSERT_EQ(whole.size(), 6u);

  // Feed the buffer through a connection-style reassembly buffer in
  // chunks of 1..7 bytes: every frame boundary gets split somewhere.
  for (std::size_t chunk = 1; chunk <= 7; ++chunk) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    std::vector<std::string> streamed;
    std::string pending;
    for (std::size_t i = 0; i < buffer.size(); i += chunk) {
      pending.append(buffer, i, std::min(chunk, buffer.size() - i));
      serve::FrameReader reader{pending};
      while (auto msg = reader.next()) {
        streamed.push_back(serve::encode_one(*msg));
      }
      if (reader.offset() < pending.size()) {
        EXPECT_TRUE(reader.needs_more());
        EXPECT_GT(reader.missing_bytes(), 0u);
      }
      pending.erase(0, reader.offset());
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(streamed, whole);
  }
}

TEST(ResumableFramingTest, PartialIsResumableCorruptThrows) {
  const std::string valid = serve::encode_one(serve::ChunkPushMsg{1, {1.0}});

  // Partial length prefix: need-more, nothing consumed.
  {
    serve::FrameReader reader{std::string_view{valid}.substr(0, 2)};
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.needs_more());
    EXPECT_EQ(reader.missing_bytes(), 2u);
    EXPECT_EQ(reader.offset(), 0u);
  }
  // Partial payload: need-more reports exactly the missing byte count.
  {
    serve::FrameReader reader{std::string_view{valid}.substr(0, valid.size() - 3)};
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.needs_more());
    EXPECT_EQ(reader.missing_bytes(), 3u);
    EXPECT_EQ(reader.offset(), 0u);
  }
  // A complete buffer ends cleanly: no need-more flag.
  {
    serve::FrameReader reader{valid};
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.needs_more());
  }
  // Unknown message type: corrupt, not resumable.
  std::string bad_type = valid;
  bad_type[4] = 99;
  {
    serve::FrameReader reader{bad_type};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
  // Absurd length (4 GiB): corrupt immediately — waiting for bytes that
  // will never arrive would hold the connection open forever.
  const std::string huge(4, '\xff');
  {
    serve::FrameReader reader{huge};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
  // Sample count claiming more doubles than the payload carries.
  std::string overclaim = serve::encode_one(serve::ChunkPushMsg{1, {}});
  overclaim[4 + 1 + 8] = 0x40;
  {
    serve::FrameReader reader{overclaim};
    EXPECT_THROW((void)reader.next(), util::DataError);
  }
}

// ---- seeded frame mutants ----------------------------------------------

/// The mutants' seeds: one valid frame of every message type and the
/// StreamStart v1 short form, then kCorruptSeeds frames the decoder
/// refuses: a chunk carrying non-finite samples and frames of the
/// retired type bytes 4, 5 and 6.
constexpr std::size_t kCorruptSeeds = 4;

std::vector<std::string> seed_frames() {
  std::vector<std::string> seeds;
  const auto add = [&seeds](const serve::Message& msg) {
    seeds.push_back(serve::encode_one(msg));
  };
  add(serve::ChunkPushMsg{3, {9.81, -1.5, 0.0, 1e300}});
  add(serve::StreamFinishMsg{5});
  core::EmotionEvent event;
  event.start_sample = 100;
  event.end_sample = 400;
  event.predicted_class = 1;
  event.probabilities = {0.25, 0.5, 0.25};
  add(serve::EventMsg{6, event});
  add(serve::AckMsg{Status::kOverloaded, 7});
  add(serve::StreamStartMsg{8, "fingerprint"});
  add(serve::StreamStartMsg{9, ""});  // encodes as the v1 short form
  add(serve::MetricsRequestMsg{});
  obs::Registry registry;
  registry.counter("serve.requests").add(3);
  registry.gauge("serve.sessions.active").set(-2);
  registry.histogram("serve.batch_size").record(100);
  add(serve::MetricsReplyMsg{registry.snapshot()});
  add(serve::TraceRequestMsg{});
  add(serve::TraceReplyMsg{"{\"traceEvents\":[]}", 4});
  add(serve::ChunkPushMsg{4,
                          {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}});
  for (const char type : {4, 5, 6}) {
    std::string frame = serve::encode_one(serve::StreamFinishMsg{1});
    frame[4] = type;
    seeds.push_back(std::move(frame));
  }
  return seeds;
}

/// One to three edits of a random seed: bit flips, u32 length edits
/// (the frame prefix or any other offset), truncation, and splices
/// with another seed.
std::string mutate(const std::vector<std::string>& seeds, util::Rng& rng) {
  std::string bytes = seeds[rng.uniform_int(seeds.size())];
  const std::uint64_t edits = 1 + rng.uniform_int(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(4)) {
      case 0:
        if (!bytes.empty()) {
          bytes[rng.uniform_int(bytes.size())] ^=
              static_cast<char>(1u << rng.uniform_int(8));
        }
        break;
      case 1:
        if (bytes.size() >= 4) {
          const std::size_t at =
              rng.uniform_int(2) == 0 ? 0 : rng.uniform_int(bytes.size() - 3);
          const std::uint32_t values[] = {
              0u, 1u, static_cast<std::uint32_t>(bytes.size()),
              static_cast<std::uint32_t>(bytes.size() - 5),
              static_cast<std::uint32_t>(serve::kMaxPayload),
              static_cast<std::uint32_t>(serve::kMaxPayload + 1),
              0xffffffffu,
              static_cast<std::uint32_t>(rng.uniform_int(64))};
          const std::uint32_t v = values[rng.uniform_int(std::size(values))];
          for (std::size_t b = 0; b < 4; ++b) {
            bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xffu);
          }
        }
        break;
      case 2:
        bytes.resize(rng.uniform_int(bytes.size() + 1));
        break;
      default: {
        const std::string& other = seeds[rng.uniform_int(seeds.size())];
        bytes = bytes.substr(0, rng.uniform_int(bytes.size() + 1)) +
                other.substr(rng.uniform_int(other.size() + 1));
        break;
      }
    }
  }
  return bytes;
}

/// What a reader makes of `bytes`: every decoded message re-encoded,
/// and whether a corrupt frame ended the decode. Only util::DataError
/// may escape FrameReader; anything else fails the test.
struct Decoded {
  std::vector<std::string> frames;
  bool corrupt = false;
};

void decode_into(std::string_view bytes, Decoded& out, std::size_t& consumed) {
  serve::FrameReader reader{bytes};
  try {
    while (auto msg = reader.next()) {
      // A decoded frame re-encodes to bytes that decode to the same
      // message: encoding those bytes again reproduces them exactly.
      const std::string again = serve::encode_one(*msg);
      serve::FrameReader check{again};
      const std::optional<serve::Message> round = check.next();
      EXPECT_TRUE(round.has_value());
      if (!round) continue;
      EXPECT_EQ(round->index(), msg->index());
      EXPECT_EQ(check.offset(), again.size());
      EXPECT_EQ(serve::encode_one(*round), again);
      out.frames.push_back(again);
    }
  } catch (const util::DataError&) {
    out.corrupt = true;
  }
  consumed = reader.offset();
}

TEST(FrameMutantTest, SeededMutantsDecodeOrRaiseDataError) {
  const std::vector<std::string> seeds = seed_frames();
  // Every valid seed decodes losslessly: re-encoding reproduces it.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Decoded seed;
    std::size_t consumed = 0;
    decode_into(seeds[i], seed, consumed);
    if (i + kCorruptSeeds < seeds.size()) {
      EXPECT_EQ(seed.frames, std::vector<std::string>{seeds[i]}) << "seed " << i;
    } else {
      EXPECT_TRUE(seed.corrupt) << "seed " << i;
    }
  }
  util::Rng rng{0xF4A3E};
  std::size_t decoded = 0;
  std::size_t corrupt = 0;
  for (int i = 0; i < 4000; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    const std::string mutant = mutate(seeds, rng);
    Decoded whole;
    std::size_t consumed = 0;
    decode_into(mutant, whole, consumed);
    decoded += whole.frames.size();
    corrupt += whole.corrupt ? 1 : 0;

    // The same bytes resumed at random split points, the way a
    // connection buffer meets them: same frames, same verdict.
    std::vector<std::size_t> cuts;
    for (std::uint64_t c = 1 + rng.uniform_int(3); c > 0; --c) {
      cuts.push_back(rng.uniform_int(mutant.size() + 1));
    }
    cuts.push_back(mutant.size());
    std::sort(cuts.begin(), cuts.end());
    Decoded resumed;
    std::string pending;
    std::size_t fed = 0;
    for (const std::size_t cut : cuts) {
      pending.append(mutant, fed, cut - fed);
      fed = cut;
      decode_into(pending, resumed, consumed);
      if (resumed.corrupt) break;
      pending.erase(0, consumed);
    }
    EXPECT_EQ(resumed.corrupt, whole.corrupt);
    EXPECT_EQ(resumed.frames, whole.frames);
  }
  // The mutants reach both outcomes.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(corrupt, 0u);
}

// ---- encode-time limits -----------------------------------------------

TEST(EncodeLimitsTest, OversizedChunkThrowsWithoutEmitting) {
  // One more sample than kMaxPayload can hold: the old encoder would
  // happily emit a frame its own decoder rejects.
  const std::size_t too_many = serve::kMaxPayload / 8 + 1;
  serve::ChunkPushMsg msg{1, std::vector<double>(too_many, 0.0)};
  std::string out = "prefix";
  EXPECT_THROW(serve::encode(out, msg), util::DataError);
  EXPECT_EQ(out, "prefix");  // nothing half-written reaches the wire

  // The largest message that does fit must still encode and round-trip.
  msg.samples.resize(1024);
  serve::encode(out, msg);
  serve::FrameReader reader{std::string_view{out}.substr(6)};
  EXPECT_EQ(std::get<serve::ChunkPushMsg>(*reader.next()).samples.size(),
            1024u);
}

TEST(EncodeLimitsTest, RetryAfterAckRoundTrips) {
  const std::string bytes =
      serve::encode_one(serve::AckMsg{Status::kOverloaded, 250});
  serve::FrameReader reader{bytes};
  const auto ack = std::get<serve::AckMsg>(*reader.next());
  EXPECT_EQ(ack.status, Status::kOverloaded);
  EXPECT_EQ(ack.retry_after_ms, 250u);
}

// ---- handle_frames error isolation ------------------------------------

TEST(HandleFramesTest, CorruptFramePreservesEarlierReplies) {
  // Unknown types: the retired stats pair (4, 5), the retired model
  // swap (6) and a byte past the end.
  for (const char type : {4, 5, 6, 99}) {
    SCOPED_TRACE("type=" + std::to_string(type));
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("m", make_model(3, 7));
    serve::ServeService service{service_config(1), registry};

    std::string bytes;
    serve::encode(bytes, serve::ChunkPushMsg{1, {9.81, 9.81}});
    const std::size_t first_frame = bytes.size();
    std::string corrupt = serve::encode_one(serve::StreamFinishMsg{2});
    corrupt[4] = type;
    bytes += corrupt;
    serve::encode(bytes, serve::ChunkPushMsg{3, {9.81}});  // never reached

    const serve::HandleResult result = service.handle_frames(bytes);
    EXPECT_TRUE(result.corrupt);
    EXPECT_EQ(result.frames, 1u);
    EXPECT_EQ(result.consumed, first_frame);
    EXPECT_EQ(result.streams_touched, (std::vector<std::uint64_t>{1}));

    // Reply 1: the valid push's ok ack. Reply 2: the offender's error
    // ack. The first reply survived the corruption after it.
    serve::FrameReader reader{result.reply};
    EXPECT_EQ(std::get<serve::AckMsg>(*reader.next()).status, Status::kOk);
    EXPECT_EQ(std::get<serve::AckMsg>(*reader.next()).status, Status::kError);
    EXPECT_FALSE(reader.next().has_value());

    // handle() (in-process transport) is non-throwing under the same
    // input and returns the same two acks.
    const std::string reply = service.handle(bytes);
    serve::FrameReader again{reply};
    EXPECT_EQ(std::get<serve::AckMsg>(*again.next()).status, Status::kOk);
    EXPECT_EQ(std::get<serve::AckMsg>(*again.next()).status, Status::kError);
  }
}

TEST(HandleFramesTest, PartialTailIsLeftUnconsumed) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", make_model(3, 7));
  serve::ServeService service{service_config(1), registry};

  std::string bytes;
  serve::encode(bytes, serve::ChunkPushMsg{1, {9.81}});
  const std::size_t first_frame = bytes.size();
  const std::string second = serve::encode_one(serve::StreamFinishMsg{1});
  bytes += second.substr(0, second.size() - 5);

  const serve::HandleResult result = service.handle_frames(bytes);
  EXPECT_FALSE(result.corrupt);
  EXPECT_EQ(result.frames, 1u);
  EXPECT_EQ(result.consumed, first_frame);  // tail retained by caller
}

// ---- loopback transport ------------------------------------------------

struct ServerFixture {
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServeService> service;
  std::unique_ptr<net::NetServer> server;

  explicit ServerFixture(serve::ServeConfig cfg,
                         net::NetServerConfig net_cfg = {}) {
    registry = std::make_shared<serve::ModelRegistry>();
    registry->add("m", make_model(3, 7));
    service = std::make_unique<serve::ServeService>(cfg, registry);
    server = std::make_unique<net::NetServer>(net_cfg, *service);
    server->start();
  }
  ~ServerFixture() {
    if (server) server->stop();
  }
};

/// The server's counter `name` (net.* and serve.* share the service
/// registry), read the way a scraper would.
std::uint64_t counter(const ServerFixture& fx, const std::string& name) {
  return fx.service->metrics_snapshot().counter(name);
}

std::int64_t sessions_active(const ServerFixture& fx) {
  return fx.service->metrics_snapshot().gauge("serve.sessions.active");
}

/// Streams `trace` over one connection, retrying overloaded chunks
/// after the advertised retry_after_ms, and collects events until
/// `expected_events` arrived. Returns the events in arrival order.
std::vector<core::EmotionEvent> stream_over_tcp(
    std::uint16_t port, std::uint64_t stream_id,
    const std::vector<double>& trace, std::size_t chunk,
    std::size_t expected_events) {
  net::BlockingClient client{port};
  client.set_recv_timeout(10000);
  std::vector<core::EmotionEvent> events;

  const auto pump_one = [&]() -> serve::AckMsg {
    for (;;) {
      auto msg = client.recv();
      if (!msg) throw net::NetError{"server closed early"};
      if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
        events.push_back(std::move(ev->event));
        continue;
      }
      return std::get<serve::AckMsg>(*msg);
    }
  };

  for (std::size_t i = 0; i < trace.size(); i += chunk) {
    const std::size_t hi = std::min(i + chunk, trace.size());
    const serve::ChunkPushMsg msg{stream_id, slice(trace, i, hi)};
    for (;;) {
      client.send(msg);
      const serve::AckMsg ack = pump_one();
      if (ack.status == Status::kOk) break;
      if (ack.status != Status::kOverloaded) {
        throw net::NetError{"unexpected ack status"};
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds{std::max<std::uint32_t>(ack.retry_after_ms, 1)});
    }
  }
  client.send(serve::StreamFinishMsg{stream_id});
  (void)pump_one();  // finish ack (events may interleave before it)
  while (events.size() < expected_events) {
    auto msg = client.recv();
    if (!msg) break;
    if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
      events.push_back(std::move(ev->event));
    }
  }
  return events;
}

TEST(NetServerTest, LoopbackRoundTripMatchesInProcess) {
  const auto model = make_model(3, 7);
  constexpr std::size_t kStreams = 3;
  constexpr std::size_t kChunk = 512;

  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  for (std::size_t s = 0; s < kStreams; ++s) {
    traces.push_back(default_trace(60 + s));
    reference.push_back(standalone_events(traces[s], kChunk, model));
    ASSERT_FALSE(reference[s].empty());
  }

  ServerFixture fx{service_config(0)};
  const std::uint16_t port = fx.server->port();

  // Concurrent clients (one per device stream) against the live accept
  // loop — the TSan shape for the transport.
  std::vector<std::vector<core::EmotionEvent>> served(kStreams);
  std::vector<std::thread> clients;
  for (std::size_t s = 0; s < kStreams; ++s) {
    clients.emplace_back([&, s] {
      served[s] = stream_over_tcp(port, s, traces[s], kChunk,
                                  reference[s].size());
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream=" + std::to_string(s));
    expect_same_events(served[s], reference[s]);
  }

  const obs::RegistrySnapshot metrics = fx.service->metrics_snapshot();
  EXPECT_EQ(metrics.counter("net.connections_accepted"), kStreams);
  EXPECT_EQ(metrics.counter("net.connections_closed_corrupt"), 0u);
  EXPECT_GT(metrics.counter("net.frames_in"), 0u);
  EXPECT_GT(metrics.counter("net.events_routed"), 0u);
  // One loop-stall sample per epoll wakeup.
  EXPECT_GT(metrics.histogram("net.loop_stall_ns").count, 0u);
}

/// A chunk length in [1, 2000], log-uniform: most chunks are short, a
/// few come near the ceiling.
std::size_t random_chunk(util::Rng& rng) {
  return static_cast<std::size_t>(std::exp(rng.uniform(0.0, std::log(2000.0))));
}

// One trace cut into random chunks, its frames written to the socket at
// random split points (frames torn across writes and reads), is served
// bit-identically to a standalone StreamingAttack fed it whole.
TEST(NetServerTest, RandomChunksAndWriteSplitsMatchStandalone) {
  ServerFixture fx{service_config(2)};
  const auto trace = default_trace(64);
  const auto reference =
      standalone_events(trace, trace.size(), fx.registry->current());
  ASSERT_FALSE(reference.empty());

  util::Rng rng{0x7C95};
  std::string bytes;
  std::size_t frames = 0;
  for (std::size_t i = 0; i < trace.size(); ++frames) {
    const std::size_t hi = std::min(trace.size(), i + random_chunk(rng));
    serve::encode(bytes, serve::ChunkPushMsg{8, slice(trace, i, hi)});
    i = hi;
  }
  serve::encode(bytes, serve::StreamFinishMsg{8});
  ++frames;

  net::BlockingClient client{fx.server->port()};
  client.set_recv_timeout(10000);
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n =
        std::min<std::size_t>(bytes.size() - at, 1 + rng.uniform_int(4096));
    client.send_bytes(std::string_view{bytes}.substr(at, n));
    at += n;
    std::this_thread::sleep_for(std::chrono::microseconds{rng.uniform_int(200)});
  }
  std::size_t acks = 0;
  std::vector<core::EmotionEvent> events;
  while (acks < frames || events.size() < reference.size()) {
    auto msg = client.recv();
    ASSERT_TRUE(msg.has_value());
    if (auto* event = std::get_if<serve::EventMsg>(&*msg)) {
      events.push_back(std::move(event->event));
    } else {
      EXPECT_EQ(std::get<serve::AckMsg>(*msg).status, Status::kOk);
      ++acks;
    }
  }
  expect_same_events(events, reference);
}

TEST(NetServerTest, OverloadAckCarriesRetryAfter) {
  serve::ServeConfig cfg = service_config(1);
  cfg.batcher.shard_count = 1;
  cfg.batcher.queue_capacity = 2;
  net::NetServerConfig net_cfg;
  net_cfg.drain_interval_ms = 200;  // long: no backstop drain mid-burst
  ServerFixture fx{cfg, net_cfg};

  net::BlockingClient client{fx.server->port()};
  client.set_recv_timeout(10000);
  const std::vector<double> chunk(64, 9.81);

  // One burst, so a single read admits all five pushes before the
  // wakeup's drain runs: the queue fills and sheds the rest.
  std::string burst;
  for (int i = 0; i < 5; ++i) serve::encode(burst, serve::ChunkPushMsg{1, chunk});
  client.send_bytes(burst);

  std::size_t ok = 0;
  std::optional<serve::AckMsg> overloaded;
  for (int i = 0; i < 5; ++i) {
    const auto ack = std::get<serve::AckMsg>(*client.recv());
    if (ack.status == Status::kOk) {
      ++ok;
    } else if (!overloaded) {
      overloaded = ack;
    }
  }
  ASSERT_TRUE(overloaded.has_value());
  EXPECT_EQ(overloaded->status, Status::kOverloaded);
  // Pinned: a different back-off changes the overload-ack bytes every
  // client sees.
  static_assert(serve::kRetryAfterMs == 1);
  EXPECT_EQ(overloaded->retry_after_ms, serve::kRetryAfterMs);
  EXPECT_LE(ok, 2u);  // nothing queued beyond the shard capacity

  // Backing off by retry_after_ms makes the retry land: the burst's
  // drain emptied the queue, so the service recovered by shedding, not
  // queueing.
  std::this_thread::sleep_for(std::chrono::milliseconds{250});
  client.send(serve::ChunkPushMsg{1, chunk});
  EXPECT_EQ(std::get<serve::AckMsg>(*client.recv()).status, Status::kOk);
}

TEST(NetServerTest, EventArrivesWithoutATick) {
  const auto model = make_model(3, 7);
  // A burst that closes mid-stream (silence follows it), so its event
  // comes from a push, not from finish or the shutdown flush.
  const auto trace = trace_with_bursts(12000, {{4000, 4700}}, 61);
  const auto reference = standalone_events(trace, 512, model);
  ASSERT_EQ(reference.size(), 1u);

  net::NetServerConfig net_cfg;
  net_cfg.drain_interval_ms = 10'000;  // the backstop timer never fires
  ServerFixture fx{service_config(1), net_cfg};
  net::BlockingClient client{fx.server->port()};
  client.set_recv_timeout(2000);

  std::vector<core::EmotionEvent> events;
  // Reads one message: collects an event, returns true for an ack.
  const auto read_one = [&] {
    auto msg = client.recv();
    if (!msg) throw net::NetError{"server closed early"};
    if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
      events.push_back(std::move(ev->event));
      return false;
    }
    EXPECT_EQ(std::get<serve::AckMsg>(*msg).status, Status::kOk);
    return true;
  };
  for (std::size_t i = 0; i < trace.size(); i += 512) {
    const std::size_t hi = std::min(i + 512, trace.size());
    client.send(serve::ChunkPushMsg{5, slice(trace, i, hi)});
    while (!read_one()) {
    }
  }
  // No further traffic and no timer: the push that closed the region
  // drained on arrival, so its event is on the wire already. Without
  // that, recv() throws after its 2 s timeout.
  while (events.empty()) (void)read_one();
  expect_same_events(events, reference);
}

TEST(NetServerTest, DisconnectEvictsSession) {
  ServerFixture fx{service_config(1)};
  {
    net::BlockingClient client{fx.server->port()};
    client.set_recv_timeout(10000);
    client.send(serve::ChunkPushMsg{7, std::vector<double>(256, 9.81)});
    EXPECT_EQ(std::get<serve::AckMsg>(*client.recv()).status, Status::kOk);
    // Admission opened the session before the ack was written; the
    // loop waits only for this thread to see the gauge.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (sessions_active(fx) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    ASSERT_EQ(sessions_active(fx), 1);
  }  // abrupt disconnect, mid-stream (no StreamFinish)

  // The server must finish the peer's streams: the session is flushed
  // and freed at the next drain, not leaked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (sessions_active(fx) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_EQ(sessions_active(fx), 0);
  EXPECT_EQ(counter(fx, "net.disconnects"), 1u);
}

TEST(NetServerTest, FinishedStreamsReleaseOwnership) {
  // A connection owns a stream only until the drain that processes its
  // finish: closing a connection whose streams all finished sends no
  // finish requests on their behalf.
  constexpr std::uint64_t kStreams = 50;
  ServerFixture fx{service_config(1)};
  const auto wait_for = [&fx](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    return done();
  };
  const auto closed = [&fx] {
    return fx.service->metrics_snapshot().gauge("net.connections_active") ==
           0;
  };
  {
    net::BlockingClient client{fx.server->port()};
    client.set_recv_timeout(10000);
    for (std::uint64_t id = 1; id <= kStreams; ++id) {
      client.send(serve::ChunkPushMsg{id, std::vector<double>(64, 9.81)});
      client.send(serve::StreamFinishMsg{id});
      for (int ack = 0; ack < 2; ++ack) {
        EXPECT_EQ(std::get<serve::AckMsg>(*client.recv()).status,
                  Status::kOk);
      }
    }
  }
  ASSERT_TRUE(wait_for(closed));
  EXPECT_EQ(counter(fx, "serve.requests"), 2 * kStreams);
  EXPECT_EQ(sessions_active(fx), 0);

  // A frame after the finish, in the same batch, restarts the stream
  // and keeps it owned: the close finishes that session.
  {
    net::BlockingClient client{fx.server->port()};
    client.set_recv_timeout(10000);
    std::string bytes;
    serve::encode(bytes, serve::ChunkPushMsg{99, std::vector<double>(64, 9.81)});
    serve::encode(bytes, serve::StreamFinishMsg{99});
    serve::encode(bytes, serve::ChunkPushMsg{99, std::vector<double>(64, 9.81)});
    client.send_bytes(bytes);
    for (int ack = 0; ack < 3; ++ack) {
      EXPECT_EQ(std::get<serve::AckMsg>(*client.recv()).status, Status::kOk);
    }
    ASSERT_TRUE(wait_for([&fx] { return sessions_active(fx) == 1; }));
  }
  ASSERT_TRUE(wait_for(closed));
  EXPECT_TRUE(wait_for([&fx] { return sessions_active(fx) == 0; }));
  EXPECT_EQ(counter(fx, "serve.requests"), 2 * kStreams + 4);
}

TEST(NetServerTest, CorruptClientIsIsolated) {
  ServerFixture fx{service_config(1)};
  const std::uint16_t port = fx.server->port();

  net::BlockingClient good{port};
  good.set_recv_timeout(10000);
  good.send(serve::ChunkPushMsg{1, std::vector<double>(64, 9.81)});
  EXPECT_EQ(std::get<serve::AckMsg>(*good.recv()).status, Status::kOk);

  // A peer that sends an absurd frame length, a frame of a retired
  // type (4 and 5 were the stats pair), or a chunk carrying a NaN or
  // infinite sample gets a kError ack and a close — and nobody else
  // notices (the good client shares stream 1 with the poisoned chunks).
  std::vector<std::string> corrupt_inputs = {std::string(8, '\xff')};
  for (const char type : {4, 5}) {
    std::string frame = serve::encode_one(serve::StreamFinishMsg{1});
    frame[4] = type;
    corrupt_inputs.push_back(frame);
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> samples(64, 9.81);
    samples[3] = bad;
    corrupt_inputs.push_back(
        serve::encode_one(serve::ChunkPushMsg{1, std::move(samples)}));
  }
  for (const std::string& bytes : corrupt_inputs) {
    net::BlockingClient bad{port};
    bad.set_recv_timeout(10000);
    bad.send_bytes(bytes);
    const auto ack = std::get<serve::AckMsg>(*bad.recv());
    EXPECT_EQ(ack.status, Status::kError);
    EXPECT_FALSE(bad.recv().has_value());  // orderly close after the ack

    // The good client's connection still works end-to-end.
    good.send(serve::ChunkPushMsg{1, std::vector<double>(64, 9.81)});
    EXPECT_EQ(std::get<serve::AckMsg>(*good.recv()).status, Status::kOk);
  }
  good.send(serve::MetricsRequestMsg{});
  const auto reply = std::get<serve::MetricsReplyMsg>(*good.recv());
  EXPECT_EQ(reply.snapshot.counter("serve.accepted"), 6u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (counter(fx, "net.connections_closed_corrupt") < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_EQ(counter(fx, "net.connections_closed_corrupt"), 5u);
}

TEST(NetServerTest, GracefulStopFlushesOpenSessions) {
  ServerFixture fx{service_config(1)};

  // A short burst running to the very end of the trace: the region is
  // still open when the server stops, so only the shutdown flush can
  // emit its event. (A longer burst would close mid-stream as the
  // adaptive noise floor absorbs it — verified against the standalone
  // attack, which emits this trace's single event from finish().)
  const auto trace = trace_with_bursts(10000, {{8800, 10000}}, 77);
  const auto reference = standalone_events(trace, 512, fx.registry->current());
  ASSERT_EQ(reference.size(), 1u);  // exactly the flush-at-finish event

  net::BlockingClient client{fx.server->port()};
  client.set_recv_timeout(10000);
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < trace.size(); i += 512) {
    const std::size_t hi = std::min(i + 512, trace.size());
    client.send(serve::ChunkPushMsg{4, slice(trace, i, hi)});
    // Tolerate events interleaved with acks: routing runs on the drain
    // tick, asynchronously to the ack stream.
    for (;;) {
      auto msg = client.recv();
      ASSERT_TRUE(msg.has_value());
      if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
        events.push_back(std::move(ev->event));
        continue;
      }
      EXPECT_EQ(std::get<serve::AckMsg>(*msg).status, Status::kOk);
      break;
    }
  }
  // No StreamFinish: the session is open. Stop the server; the client
  // keeps reading so the shutdown flush can complete.
  std::thread stopper{[&] { fx.server->stop(); }};
  for (;;) {
    std::optional<serve::Message> msg;
    try {
      msg = client.recv();
    } catch (const net::NetError&) {
      break;  // reset instead of orderly close still ends the read loop
    }
    if (!msg) break;  // orderly close after the flush
    if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
      events.push_back(std::move(ev->event));
    }
  }
  stopper.join();

  expect_same_events(events, reference);
  EXPECT_EQ(sessions_active(fx), 0);
  EXPECT_FALSE(fx.server->running());
}

TEST(NetServerTest, ConnectionCapRejectsWithRetryAfter) {
  net::NetServerConfig net_cfg;
  net_cfg.max_connections = 2;
  ServerFixture fx{service_config(1), net_cfg};
  const std::uint16_t port = fx.server->port();

  net::BlockingClient a{port};
  net::BlockingClient b{port};
  a.set_recv_timeout(10000);
  b.set_recv_timeout(10000);
  // Prove both are admitted before the third arrives.
  a.send(serve::MetricsRequestMsg{});
  (void)a.recv();
  b.send(serve::MetricsRequestMsg{});
  (void)b.recv();

  net::BlockingClient c{port};
  c.set_recv_timeout(10000);
  const auto ack = std::get<serve::AckMsg>(*c.recv());
  EXPECT_EQ(ack.status, Status::kOverloaded);
  EXPECT_EQ(ack.retry_after_ms, serve::kRetryAfterMs);
  EXPECT_FALSE(c.recv().has_value());  // then closed
  EXPECT_EQ(counter(fx, "net.connections_rejected"), 1u);
}

TEST(NetServerTest, ConcurrentScrapeUnderMixedTaskTraffic) {
  // The TSan shape for the telemetry path: scraper connections hammer
  // kMetricsRequest/kTraceRequest against the live event loop while
  // mixed-task device streams flow — and the streamed events must stay
  // bit-identical to the no-scrape references (telemetry never
  // perturbs results).
  const auto model_a = make_model(3, 7);
  const auto model_b = make_model(3, 9);
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kChunk = 512;

  std::vector<std::vector<double>> traces;
  std::vector<std::vector<core::EmotionEvent>> reference;
  for (std::size_t s = 0; s < kStreams; ++s) {
    traces.push_back(default_trace(70 + s));
    reference.push_back(
        standalone_events(traces[s], kChunk, s % 2 == 0 ? model_a : model_b));
    ASSERT_FALSE(reference[s].empty());
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("task-a", model_a);
  registry->add("task-b", model_b);
  serve::ServeService service{service_config(0), registry};
  net::NetServer server{net::NetServerConfig{}, service};
  server.start();
  const std::uint16_t port = server.port();

  obs::set_trace_enabled(true);
  std::atomic<bool> streaming{true};
  std::atomic<std::uint64_t> scrapes{0};
  std::atomic<std::uint64_t> trace_bytes{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&, t] {
      net::BlockingClient client{port};
      client.set_recv_timeout(10000);
      while (streaming.load(std::memory_order_acquire)) {
        client.send(serve::MetricsRequestMsg{});
        const auto metrics = client.recv();
        ASSERT_TRUE(metrics.has_value());
        const auto& snapshot =
            std::get<serve::MetricsReplyMsg>(*metrics).snapshot;
        // Transport counters ride in the same scrape as serve.*: one
        // request covers the whole server.
        bool saw_net = false;
        bool saw_serve = false;
        for (const auto& [name, value] : snapshot.counters) {
          saw_net = saw_net || name.rfind("net.", 0) == 0;
          saw_serve = saw_serve || name.rfind("serve.", 0) == 0;
        }
        EXPECT_TRUE(saw_net);
        EXPECT_TRUE(saw_serve);
        if (t == 1) {  // one scraper also pulls the span rings
          client.send(serve::TraceRequestMsg{});
          const auto trace = client.recv();
          ASSERT_TRUE(trace.has_value());
          const auto& reply = std::get<serve::TraceReplyMsg>(*trace);
          EXPECT_NE(reply.trace_json.find("\"traceEvents\""),
                    std::string::npos);
          trace_bytes.fetch_add(reply.trace_json.size(),
                                std::memory_order_relaxed);
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::vector<core::EmotionEvent>> served(kStreams);
  std::vector<std::thread> clients;
  for (std::size_t s = 0; s < kStreams; ++s) {
    clients.emplace_back([&, s] {
      // Same shape as stream_over_tcp, plus the StreamStart binding the
      // stream to its task — on the same connection, so the session
      // keeps its model for the whole stream.
      net::BlockingClient client{port};
      client.set_recv_timeout(10000);
      std::vector<core::EmotionEvent>& events = served[s];
      const auto pump_one = [&]() -> serve::AckMsg {
        for (;;) {
          auto msg = client.recv();
          if (!msg) throw net::NetError{"server closed early"};
          if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
            events.push_back(std::move(ev->event));
            continue;
          }
          return std::get<serve::AckMsg>(*msg);
        }
      };
      client.send(
          serve::StreamStartMsg{s, s % 2 == 0 ? "task-a" : "task-b"});
      EXPECT_EQ(pump_one().status, Status::kOk);
      const std::vector<double>& trace = traces[s];
      for (std::size_t i = 0; i < trace.size(); i += kChunk) {
        const std::size_t hi = std::min(i + kChunk, trace.size());
        const serve::ChunkPushMsg msg{s, slice(trace, i, hi)};
        for (;;) {
          client.send(msg);
          const serve::AckMsg ack = pump_one();
          if (ack.status == Status::kOk) break;
          ASSERT_EQ(ack.status, Status::kOverloaded);
          std::this_thread::sleep_for(std::chrono::milliseconds{
              std::max<std::uint32_t>(ack.retry_after_ms, 1)});
        }
      }
      client.send(serve::StreamFinishMsg{s});
      (void)pump_one();
      while (events.size() < reference[s].size()) {
        auto msg = client.recv();
        if (!msg) break;
        if (auto* ev = std::get_if<serve::EventMsg>(&*msg)) {
          events.push_back(std::move(ev->event));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  streaming.store(false, std::memory_order_release);
  for (auto& t : scrapers) t.join();
  obs::set_trace_enabled(false);
  server.stop();
  obs::clear_trace();

  EXPECT_GT(scrapes.load(), 0u);
  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream=" + std::to_string(s));
    expect_same_events(served[s], reference[s]);
  }
}

}  // namespace
