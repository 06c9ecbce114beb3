// Example: the emoleak::serve inference service end-to-end.
//
// The deployed threat model (paper §III-A) at fleet scale: an operator
// trains a model offline, ships it as a file, and a service classifies
// exfiltrated accelerometer streams from many devices concurrently.
// This demo
//
//   1. trains a Logistic model on TESS and persists it with
//      ml::save_model_file (the offline-train -> serve handoff),
//   2. warm-loads it into a ModelRegistry,
//   3. drives N synthetic phone recordings through ServeService over
//      the wire protocol — one producer thread per device, pushes
//      retried on overload, a pump loop draining batches —
//   4. cross-checks every stream's event sequence against a standalone
//      core::StreamingAttack fed the same chunks: the sequences must be
//      bit-identical (same regions, same probabilities) at any thread
//      count, and
//   5. prints the service counters (requests, rejections, p50/p99
//      drain latency) from the service's metrics snapshot.
//
// With --listen PORT it instead exposes the trained service on a real
// TCP socket (127.0.0.1:PORT, the emoleak::net epoll transport) and
// serves until SIGINT — the counterpart for examples/loadgen or any
// client speaking the wire protocol.
//
// With --retrain-every MS a retrainer thread refits the emotion model
// as a histogram-binned RandomForest (ml::TreeConfig::exact = false)
// every MS milliseconds *while traffic flows* and hot-swaps each new
// version through the ModelRegistry (add + activate). Binned training
// is deterministic, so every retrained version is bit-identical and
// the served event streams still match the standalone reference —
// the drain-latency percentiles then show that swapping models under
// load never stalls the serving path.
//
//   serve_demo [--streams N] [--threads N] [--trace PATH] [--metrics]
//              [--retrain-every MS]
//   serve_demo --listen PORT [--threads N] [--retrain-every MS]
#include <csignal>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/attack.h"
#include "core/streaming.h"
#include "ml/ensemble.h"
#include "ml/logistic.h"
#include "ml/serialize.h"
#include "net/server.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "util/table.h"

namespace {

using namespace emoleak;

constexpr std::size_t kChunk = 256;

/// Reference implementation: the same chunks through one standalone
/// StreamingAttack.
std::vector<core::EmotionEvent> standalone_events(
    const phone::Recording& recording, const core::StreamingConfig& cfg,
    std::shared_ptr<const ml::Classifier> model) {
  core::StreamingAttack attack{cfg, recording.rate_hz, std::move(model)};
  std::vector<core::EmotionEvent> events;
  for (std::size_t i = 0; i < recording.accel.size(); i += kChunk) {
    const std::size_t hi = std::min(i + kChunk, recording.accel.size());
    auto chunk = attack.push(
        std::span<const double>{recording.accel.data() + i, hi - i});
    events.insert(events.end(), chunk.begin(), chunk.end());
  }
  if (auto last = attack.finish()) events.push_back(*last);
  return events;
}

bool same_events(const std::vector<core::EmotionEvent>& a,
                 const std::vector<core::EmotionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start_sample != b[i].start_sample ||
        a[i].end_sample != b[i].end_sample ||
        a[i].predicted_class != b[i].predicted_class ||
        a[i].probabilities != b[i].probabilities) {
      return false;
    }
  }
  return true;
}

/// Drain-latency quantile in microseconds (serve.drain_latency_ns).
double drain_us(const obs::RegistrySnapshot& metrics, double q) {
  return metrics.histogram("serve.drain_latency_ns").quantile(q) / 1000.0;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// --listen mode: serve over TCP until SIGINT/SIGTERM, then stop
/// gracefully (open sessions flushed, final events delivered).
int listen_forever(serve::ServeService& service, std::uint16_t port) {
  net::NetServerConfig net_cfg;
  net_cfg.port = port;
  net::NetServer server{net_cfg, service};
  server.start();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::cout << "listening on 127.0.0.1:" << server.port()
            << " — Ctrl-C to stop (open sessions are flushed)" << std::endl;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
  }
  std::cout << "\nstopping...\n";
  server.stop();

  const obs::RegistrySnapshot m = service.metrics_snapshot();
  const auto count = [&m](const char* name) {
    return std::to_string(m.counter(name));
  };
  util::TablePrinter table{{"counter", "value"}};
  table.add_row({"connections accepted", count("net.connections_accepted")});
  table.add_row({"frames in", count("net.frames_in")});
  table.add_row({"partial reads", count("net.partial_reads")});
  table.add_row({"events routed", count("net.events_routed")});
  table.add_row({"overload acks", count("net.overload_acks")});
  table.add_row({"bytes in/out",
                 count("net.bytes_in") + " / " + count("net.bytes_out")});
  table.add_row({"drain p99 (us)", util::fixed(drain_us(m, 0.99), 1)});
  std::cout << "\nTransport counters:\n" << table.str();
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t stream_count = 8;
  std::size_t threads = 0;  // 0 = all cores
  std::string trace_path;
  bool metrics = false;
  int listen_port = -1;
  std::size_t retrain_every_ms = 0;  // 0 = no retraining
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--streams") == 0 && i + 1 < argc) {
      stream_count = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::stoul(argv[++i]);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_port = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--retrain-every") == 0 && i + 1 < argc) {
      retrain_every_ms = std::stoul(argv[++i]);
    }
  }
  if (stream_count == 0) stream_count = 1;
  // Listen mode needs no synthetic device streams — just one recording
  // to pin the service's sample rate.
  if (listen_port >= 0) stream_count = 1;
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  // ---- Offline: train and persist the operator's model. --------------
  core::ScenarioConfig training = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), /*seed=*/21);
  training.corpus_fraction = 0.1;
  training.pipeline.parallelism = util::Parallelism{.threads = threads};
  const core::ExtractedData train_data = core::capture(training);

  // Retrain mode serves the paper's emotion forest on the histogram-
  // binned training path (what the retrainer refits under load);
  // otherwise the original logistic model keeps the demo light.
  ml::RandomForestConfig forest_cfg;
  forest_cfg.tree_count = 30;
  forest_cfg.tree.exact = false;  // histogram-binned split finding
  forest_cfg.seed = 77;
  forest_cfg.parallelism = util::Parallelism{.threads = threads};
  const std::string model_path = "/tmp/emoleak_serve_demo_model.txt";
  const char* model_name = "tess-logistic";
  if (retrain_every_ms > 0) {
    model_name = "tess-forest";
    ml::RandomForest trained{forest_cfg};
    trained.fit(train_data.features);
    ml::save_model_file(model_path, trained);
  } else {
    ml::LogisticRegression trained;
    trained.fit(train_data.features);
    ml::save_model_file(model_path, trained);
  }
  std::cout << "Trained on " << train_data.features.size()
            << " regions; model persisted to " << model_path << "\n";

  // ---- Synthesize one recording per device stream. -------------------
  std::vector<phone::Recording> recordings;
  recordings.reserve(stream_count);
  for (std::size_t s = 0; s < stream_count; ++s) {
    const audio::Corpus corpus{audio::scaled_spec(audio::tess_spec(), 0.01),
                               /*seed=*/100 + s};
    phone::RecorderConfig rc;
    rc.seed = 200 + s;
    recordings.push_back(record_session(corpus, phone::oneplus_7t(), rc));
  }

  // ---- Online: registry + service. -----------------------------------
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->load_file(model_name, model_path);

  serve::ServeConfig cfg;
  cfg.session.stream.detector = core::tabletop_detector_config();
  cfg.session.sample_rate_hz = recordings.front().rate_hz;
  cfg.session.max_sessions = listen_port >= 0 ? 64 : stream_count;
  cfg.batcher.shard_count = std::max<std::size_t>(stream_count, 8);
  cfg.batcher.queue_capacity = 64;
  cfg.parallelism = util::Parallelism{.threads = threads};
  serve::ServeService service{cfg, registry};

  // ---- Live retraining: refit + hot-swap while traffic flows. --------
  // Each cycle refits the forest on the binned path and publishes the
  // result as a new registry version (add bumps the name, activate
  // makes it the default for new resolutions; in-flight sessions
  // re-resolve on the generation tick). Training is deterministic, so
  // every version predicts identically and the bit-identical stream
  // check below still holds across however many swaps landed mid-run.
  std::atomic<bool> stop_retrainer{false};
  std::atomic<std::size_t> retrain_count{0};
  std::atomic<std::uint64_t> retrain_total_us{0};
  std::thread retrainer;
  if (retrain_every_ms > 0) {
    retrainer = std::thread([&] {
      while (!stop_retrainer.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds{retrain_every_ms});
        if (stop_retrainer.load(std::memory_order_acquire)) break;
        const auto t0 = std::chrono::steady_clock::now();
        auto forest = std::make_shared<ml::RandomForest>(forest_cfg);
        forest->fit(train_data.features);
        const std::uint32_t version = registry->add(model_name, forest);
        registry->activate(version);
        const auto dt = std::chrono::steady_clock::now() - t0;
        retrain_total_us.fetch_add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
        retrain_count.fetch_add(1);
      }
    });
  }
  const auto stop_retraining = [&] {
    stop_retrainer.store(true, std::memory_order_release);
    if (retrainer.joinable()) retrainer.join();
  };
  const auto print_retrain_stats = [&] {
    if (retrain_every_ms == 0) return;
    const std::size_t n = retrain_count.load();
    util::TablePrinter rt{{"retraining", "value"}};
    rt.add_row({"retrains (binned forest fits)", std::to_string(n)});
    rt.add_row({"model versions live",
                std::to_string(registry->list().size())});
    rt.add_row({"registry generation",
                std::to_string(registry->generation())});
    rt.add_row(
        {"mean retrain (ms)",
         n == 0 ? "-" : util::fixed(static_cast<double>(retrain_total_us.load()) /
                                        (1000.0 * static_cast<double>(n)),
                                    1)});
    std::cout << "\nRetrain-and-hot-swap under load:\n" << rt.str();
  };

  if (listen_port >= 0) {
    const int rc = listen_forever(service, static_cast<std::uint16_t>(listen_port));
    stop_retraining();
    print_retrain_stats();
    return rc;
  }

  // Producer per device: push 256-sample chunks over the wire protocol,
  // retrying on overload — the service sheds load instead of queueing
  // unboundedly, so producers see backpressure, not latency cliffs.
  std::atomic<std::size_t> live_producers{stream_count};
  std::vector<std::thread> producers;
  producers.reserve(stream_count);
  for (std::size_t s = 0; s < stream_count; ++s) {
    producers.emplace_back([&, s] {
      const std::vector<double>& accel = recordings[s].accel;
      for (std::size_t i = 0; i < accel.size(); i += kChunk) {
        const std::size_t hi = std::min(i + kChunk, accel.size());
        const serve::ChunkPushMsg msg{
            s, std::vector<double>{accel.begin() + static_cast<std::ptrdiff_t>(i),
                                   accel.begin() + static_cast<std::ptrdiff_t>(hi)}};
        for (;;) {
          const std::string reply = service.handle(serve::encode_one(msg));
          serve::FrameReader reader{reply};
          const auto ack = std::get<serve::AckMsg>(*reader.next());
          if (ack.status == serve::Status::kOk) break;
          std::this_thread::yield();  // overloaded: wait for the pump
        }
      }
      live_producers.fetch_sub(1);
    });
  }

  // Pump: drain batches until every producer is done and queues are dry.
  std::size_t processed = 0;
  while (live_producers.load() > 0) {
    processed += service.drain();
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  for (std::size_t s = 0; s < stream_count; ++s) {
    (void)service.handle(
        serve::encode_one(serve::StreamFinishMsg{s}));
  }
  processed += service.drain();
  stop_retraining();

  // ---- Verify: per-stream bit-identical to the standalone attack. ----
  std::vector<std::vector<core::EmotionEvent>> served(stream_count);
  for (auto& event : service.take_events()) {
    served[event.stream_id].push_back(event.event);
  }

  util::TablePrinter table{{"stream", "events", "matches standalone"}};
  bool all_match = true;
  for (std::size_t s = 0; s < stream_count; ++s) {
    const auto reference =
        standalone_events(recordings[s], cfg.session.stream, registry->current());
    const bool match = same_events(served[s], reference);
    all_match = all_match && match;
    table.add_row({std::to_string(s), std::to_string(served[s].size()),
                   match ? "yes (bit-identical)" : "NO"});
  }
  std::cout << "\nServed " << stream_count << " concurrent device streams ("
            << processed << " requests processed):\n"
            << table.str();

  const obs::RegistrySnapshot m = service.metrics_snapshot();
  const obs::HistogramSnapshot& drain = m.histogram("serve.drain_latency_ns");
  const auto count = [&m](const char* name) {
    return std::to_string(m.counter(name));
  };
  util::TablePrinter st{{"counter", "value"}};
  st.add_row({"requests", count("serve.requests")});
  st.add_row({"accepted", count("serve.accepted")});
  st.add_row({"rejected (overload)", count("serve.rejected_overload")});
  st.add_row({"events emitted", count("serve.events_emitted")});
  st.add_row({"drain cycles", count("serve.drains")});
  st.add_row({"sessions created", count("serve.sessions.created")});
  st.add_row({"drain p50 (us)", util::fixed(drain_us(m, 0.50), 1)});
  st.add_row({"drain p99 (us)", util::fixed(drain_us(m, 0.99), 1)});
  st.add_row({"drain samples", std::to_string(drain.count)});
  std::cout << "\nService counters:\n" << st.str();
  print_retrain_stats();

  // Full drain-latency distribution as a kMetricsRequest scrape carries
  // it: (upper_bound_us, count) for every non-empty bucket.
  if (!drain.buckets.empty()) {
    util::TablePrinter hist{{"drain latency <= (us)", "count"}};
    for (const obs::HistogramSnapshot::Bucket& b : drain.buckets) {
      hist.add_row({util::fixed(b.upper / 1000.0, 1), std::to_string(b.count)});
    }
    std::cout << "\nDrain latency histogram:\n" << hist.str();
  }

  if (!trace_path.empty()) {
    obs::set_trace_enabled(false);
    obs::write_trace_file(trace_path);
    std::cout << "\nWrote trace to " << trace_path << "\n";
  }
  if (metrics) {
    std::cout << "\nMetrics registry:\n"
              << obs::Registry::instance().render_text();
  }

  if (!all_match) {
    std::cerr << "\nFAIL: served events differ from the standalone "
                 "StreamingAttack.\n";
    return EXIT_FAILURE;
  }
  std::cout << "\nEvery stream's event sequence is bit-identical to a "
               "standalone StreamingAttack — batching and sharding change "
               "throughput, never results.\n";
  return EXIT_SUCCESS;
}
