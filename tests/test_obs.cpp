// Tests for emoleak::obs — histogram bucketing and quantile accuracy,
// lock-free recording under concurrency, snapshot monotonicity, span
// tracing (enabled, disabled, ring wrap), and the two system-level
// guarantees the layer ships with: observation never perturbs pipeline
// results, and the steady-state serve drain stays allocation-free as
// seen through the exported workspace/tensor counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <thread>
#include <vector>

#include "core/attack.h"
#include "core/speech_region.h"
#include "ml/logistic.h"
#include "nn/tensor.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/workspace.h"

namespace {

using namespace emoleak;

TEST(Histogram, SmallValuesAreExact) {
  // Values below 2^kSubBits get a bucket each: zero relative error.
  for (std::uint64_t v = 0; v < (1u << obs::Histogram::kSubBits); ++v) {
    const std::size_t i = obs::Histogram::bucket_index(v);
    EXPECT_EQ(obs::Histogram::bucket_lower(i), v);
    EXPECT_EQ(obs::Histogram::bucket_upper(i), v);
  }
}

TEST(Histogram, BucketBoundsContainValueEverywhere) {
  // Sweep representative values across the whole uint64 range,
  // including bucket edges: the value must fall inside its bucket's
  // [lower, upper], indices must be monotone in the value, and the
  // relative width must not exceed 1/2^kSubBits.
  std::vector<std::uint64_t> values;
  for (unsigned bit = 0; bit < 64; ++bit) {
    const std::uint64_t base = std::uint64_t{1} << bit;
    for (const std::uint64_t v :
         {base - 1, base, base + 1, base + base / 3, base + base / 2}) {
      values.push_back(v);
    }
  }
  values.push_back(std::uint64_t(-1));
  std::sort(values.begin(), values.end());

  std::size_t prev_index = 0;
  for (const std::uint64_t v : values) {
    const std::size_t i = obs::Histogram::bucket_index(v);
    ASSERT_LT(i, obs::Histogram::kBucketCount) << "v=" << v;
    const std::uint64_t lo = obs::Histogram::bucket_lower(i);
    const std::uint64_t hi = obs::Histogram::bucket_upper(i);
    EXPECT_LE(lo, v) << "v=" << v;
    EXPECT_GE(hi, v) << "v=" << v;
    EXPECT_GE(i, prev_index) << "v=" << v;
    prev_index = i;
    if (lo >= (1u << obs::Histogram::kSubBits)) {
      EXPECT_LE(static_cast<double>(hi - lo),
                static_cast<double>(lo) / 8.0 + 1.0)
          << "v=" << v;
    }
  }
}

TEST(Histogram, EmptyAndSingleSample) {
  obs::Histogram h;
  obs::HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);

  h.record(42);
  obs::HistogramSnapshot one = h.snapshot();
  EXPECT_EQ(one.count, 1u);
  ASSERT_EQ(one.buckets.size(), 1u);
  // Every quantile of a single sample is that sample's bucket.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(one.quantile(q), 42.0);
    EXPECT_LE(one.quantile(q), 42.0 * 1.125);
  }
}

TEST(Histogram, QuantilesMatchExactReferenceWithinBucketWidth) {
  // Log-uniform-ish values over several decades, the shape latencies
  // take. The histogram quantile must land in the bucket containing the
  // exact nearest-rank value: >= it, and <= 12.5% above it (+1 for the
  // integer edge).
  obs::Histogram h;
  util::Rng rng{1234};
  std::vector<std::uint64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double exponent = 6.0 * rng.uniform();  // 1 .. 1e6
    const auto v = static_cast<std::uint64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  const obs::HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.count, values.size());
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const auto exact =
        static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
    const double approx = s.quantile(q);
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * 1.125 + 1.0) << "q=" << q;
  }
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      util::Rng rng{static_cast<std::uint64_t>(100 + t)};
      for (int i = 0; i < kPerThread; ++i) {
        h.record(1 + rng.uniform_int(1u << 20));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Histogram, SnapshotsAreMonotonicUnderConcurrentWriter) {
  obs::Histogram h;
  constexpr std::uint64_t kRecords = 200000;
  std::thread writer{[&] {
    util::Rng rng{77};
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      h.record(1 + rng.uniform_int(1000));
    }
  }};
  // Snapshot continuously until the writer's last record is visible, so
  // most snapshots genuinely race the recording.
  std::uint64_t prev_count = 0;
  double prev_sum = 0.0;
  while (prev_count < kRecords) {
    const obs::HistogramSnapshot s = h.snapshot();
    EXPECT_GE(s.count, prev_count);
    EXPECT_GE(s.sum, prev_sum);
    // Self-consistency: the totals are derived from the buckets read.
    std::uint64_t bucket_total = 0;
    for (const auto& b : s.buckets) bucket_total += b.count;
    EXPECT_EQ(bucket_total, s.count);
    prev_count = s.count;
    prev_sum = s.sum;
  }
  writer.join();
  EXPECT_EQ(h.count(), kRecords);
}

TEST(Registry, HandsOutStableReferences) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("alpha");
  obs::Counter& b = registry.counter("beta");
  a.add(3);
  // A get-or-create for a fresh name must not move existing metrics.
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("extra." + std::to_string(i));
  }
  EXPECT_EQ(&a, &registry.counter("alpha"));
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.counter("alpha").value(), 3u);

  registry.gauge("depth").set(-4);
  EXPECT_EQ(registry.gauge("depth").value(), -4);
  registry.histogram("lat").record(9);

  const std::string text = registry.render_text();
  EXPECT_NE(text.find("alpha 3"), std::string::npos);
  EXPECT_NE(text.find("depth -4"), std::string::npos);
  EXPECT_NE(text.find("lat{count=1"), std::string::npos);
}

TEST(Registry, SnapshotLooksUpMetricsByName) {
  obs::Registry registry;
  registry.counter("serve.requests").add(7);
  registry.gauge("serve.sessions.active").set(-2);
  registry.histogram("serve.drain_latency_ns").record(5);
  registry.histogram("serve.drain_latency_ns").record(5);

  const obs::RegistrySnapshot s = registry.snapshot();
  EXPECT_EQ(s.counter("serve.requests"), 7u);
  EXPECT_EQ(s.gauge("serve.sessions.active"), -2);
  EXPECT_EQ(s.histogram("serve.drain_latency_ns").count, 2u);
  EXPECT_EQ(s.histogram("serve.drain_latency_ns").quantile(0.5), 5.0);
  // Kinds do not alias, and an absent name reads as never recorded.
  EXPECT_EQ(s.counter("serve.sessions.active"), 0u);
  EXPECT_EQ(s.gauge("missing"), 0);
  EXPECT_EQ(s.histogram("missing").count, 0u);
  EXPECT_TRUE(s.histogram("missing").buckets.empty());
}

TEST(Trace, DisabledSpanRecordsNothing) {
  obs::set_trace_enabled(false);
  obs::clear_trace();
  const std::uint64_t before = obs::detail::thread_ring().head();
  for (int i = 0; i < 100; ++i) {
    obs::Span span{"test.disabled"};
  }
  EXPECT_EQ(obs::detail::thread_ring().head(), before);
}

TEST(Trace, EnabledSpansAppearInJson) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    obs::Span outer{"test.outer"};
    obs::Span inner{"test.inner", "value", 42};
  }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.outer"), std::string::npos);
  EXPECT_NE(json.find("test.inner"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(Trace, RingWrapCountsDropped) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  constexpr std::uint64_t kExtra = 123;
  for (std::uint64_t i = 0; i < obs::detail::TraceRing::kCapacity + kExtra;
       ++i) {
    obs::Span span{"test.wrap"};
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_dropped(), kExtra);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(Obs, TracingDoesNotPerturbPipelineResults) {
  // The acceptance bar for the whole layer: the same capture with span
  // recording on and off must produce bit-identical features & labels.
  core::ScenarioConfig scenario = core::loudspeaker_scenario(
      audio::tess_spec(), phone::oneplus_7t(), /*seed=*/97);
  scenario.corpus_fraction = 0.05;

  obs::set_trace_enabled(false);
  const core::ExtractedData off = core::capture(scenario);

  obs::clear_trace();
  obs::set_trace_enabled(true);
  const core::ExtractedData on = core::capture(scenario);
  obs::set_trace_enabled(false);

  ASSERT_GT(off.features.size(), 0u);
  ASSERT_EQ(on.features.x, off.features.x);  // bit-identical doubles
  EXPECT_EQ(on.features.y, off.features.y);
  EXPECT_EQ(on.spectrograms, off.spectrograms);
  // And the traced run actually recorded the pipeline stages.
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("pipeline.extract"), std::string::npos);
  EXPECT_NE(json.find("pipeline.synthesize"), std::string::npos);
  obs::clear_trace();
}

TEST(Obs, TensorAllocCounterTracksAllocations) {
  obs::Counter& allocs = obs::Registry::instance().counter("nn.tensor_allocs");
  const std::uint64_t before = allocs.value();
  { nn::Tensor t{{2, 3, 4, 1}}; }
  EXPECT_GT(allocs.value(), before);
}

TEST(Obs, SteadyStateServeDrainAllocatesNoWorkspaceOrTensors) {
  // Satellite regression: after warm-up, repeated serve drains of the
  // same stream must not grow any workspace arena or allocate tensors —
  // observed through the registry-exported counters, which also proves
  // the export itself is wired. threads=1 keeps every request on the
  // calling thread, so the warm arena is the one reused each round.
  util::Rng rng{310};
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

  constexpr double kRate = 420.0;
  constexpr std::size_t kSamples = 8400;  // 20 s
  std::vector<double> trace(kSamples, 9.81);
  util::Rng noise{311};
  for (double& v : trace) v += 0.003 * noise.normal();
  for (std::size_t i = 2000; i < 2700; ++i) {
    trace[i] += 0.1 * std::sin(2.0 * std::numbers::pi * 100.0 *
                               static_cast<double>(i) / kRate);
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->add("m", model);
  serve::ServeConfig cfg;
  cfg.session.stream.detector = core::tabletop_detector_config();
  cfg.session.sample_rate_hz = kRate;
  cfg.batcher.queue_capacity = kSamples / 256 + 2;
  cfg.parallelism = util::Parallelism{.threads = 1};
  serve::ServeService service{cfg, registry};

  const auto push_all = [&] {
    for (std::size_t i = 0; i < kSamples; i += 256) {
      const std::size_t hi = std::min(i + 256, kSamples);
      ASSERT_EQ(service.push(0, std::vector<double>{
                                    trace.begin() + static_cast<std::ptrdiff_t>(i),
                                    trace.begin() + static_cast<std::ptrdiff_t>(hi)}),
                serve::Status::kOk);
      service.drain();
    }
  };

  push_all();  // warm-up: arenas grow to the high-water mark here
  (void)service.take_events();

  obs::Counter& grows = obs::Registry::instance().counter("workspace.grows");
  obs::Counter& tensor_allocs =
      obs::Registry::instance().counter("nn.tensor_allocs");
  const std::uint64_t grows_before = grows.value();
  const std::uint64_t tensors_before = tensor_allocs.value();

  for (int round = 0; round < 3; ++round) push_all();
  EXPECT_GT(service.metrics_snapshot().counter("serve.events_emitted"), 0u);

  EXPECT_EQ(grows.value(), grows_before)
      << "steady-state drain grew a workspace arena";
  EXPECT_EQ(tensor_allocs.value(), tensors_before)
      << "steady-state drain allocated a tensor";
}

TEST(Delta, HistogramDeltaIsolatesTheWindow) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);  // history: fast
  const obs::HistogramSnapshot earlier = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(100000);  // window: slow
  const obs::HistogramSnapshot later = h.snapshot();

  const obs::HistogramSnapshot delta = obs::histogram_delta(earlier, later);
  EXPECT_EQ(delta.count, 50u);
  // The window saw only slow records, so even its p1 clears the fast
  // bucket — the full-history p50 would still sit at 10.
  EXPECT_GE(delta.quantile(0.01), 100000.0 / 1.125);
  EXPECT_GE(delta.quantile(0.99), 100000.0 / 1.125);
  // Rate math: window sum over window count, not history-diluted.
  EXPECT_NEAR(delta.mean(), 100000.0, 100000.0 * 0.125 + 1.0);

  // A well-ordered pair with no in-window records is empty.
  const obs::HistogramSnapshot none = obs::histogram_delta(later, later);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.quantile(0.99), 0.0);

  // Swapped order (later first) clamps at zero instead of underflowing.
  const obs::HistogramSnapshot swapped = obs::histogram_delta(later, earlier);
  EXPECT_EQ(swapped.count, 0u);
}

TEST(Delta, RegistryDeltaClampsAndKeepsGauges) {
  obs::Registry registry;
  registry.counter("reqs").add(7);
  registry.gauge("depth").set(3);
  registry.histogram("lat").record(50);
  const obs::RegistrySnapshot earlier = registry.snapshot();

  registry.counter("reqs").add(5);
  registry.counter("fresh").add(2);  // born inside the window
  registry.gauge("depth").set(-1);
  registry.histogram("lat").record(60);
  const obs::RegistrySnapshot later = registry.snapshot();

  const obs::RegistrySnapshot delta = obs::registry_delta(earlier, later);
  const auto find_counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : delta.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(find_counter("reqs"), 5u);
  EXPECT_EQ(find_counter("fresh"), 2u);
  // Gauges are point-in-time: the delta carries the later value.
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].second, -1);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].second.count, 1u);
}

TEST(Delta, SnapshotsAreSortedAndMergeable) {
  obs::Registry service;
  service.counter("serve.requests").add(4);
  service.counter("shared").add(1);
  obs::Registry process;
  process.counter("workspace.grows").add(9);
  process.counter("shared").add(100);

  const obs::RegistrySnapshot merged =
      obs::merge_snapshots(service.snapshot(), process.snapshot());
  ASSERT_EQ(merged.counters.size(), 3u);
  // Output stays name-sorted (the wire format and prometheus_text both
  // rely on it), and the primary wins name collisions.
  EXPECT_TRUE(std::is_sorted(
      merged.counters.begin(), merged.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  for (const auto& [name, value] : merged.counters) {
    if (name == "shared") {
      EXPECT_EQ(value, 1u);
    }
  }
}

TEST(Prometheus, TextFormatAndNameSanitization) {
  obs::Registry registry;
  registry.counter("serve.task.tess-logistic(v2).requests").add(11);
  registry.gauge("net.connections_active").set(-2);
  obs::Histogram& h = registry.histogram("serve.drain_latency_ns");
  h.record(5);
  h.record(5);
  h.record(1000);

  const std::string text = obs::prometheus_text(registry.snapshot());

  // Dots and parens sanitize to underscores; the value rides verbatim.
  EXPECT_NE(text.find("# TYPE serve_task_tess_logistic_v2__requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_task_tess_logistic_v2__requests 11"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE net_connections_active gauge"),
            std::string::npos);
  EXPECT_NE(text.find("net_connections_active -2"), std::string::npos);

  // Histogram: cumulative buckets ending in +Inf == count, plus
  // _sum/_count samples.
  EXPECT_NE(text.find("# TYPE serve_drain_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("serve_drain_latency_ns_bucket{le=\"5\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_drain_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_drain_latency_ns_count 3"), std::string::npos);
  // Every line is "name value", "name{le=\"..\"} value", or a comment —
  // no empty lines, no unsanitized characters.
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // text ends with a newline
    const std::string line = text.substr(start, end - start);
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.find('('), std::string::npos) << line;
    start = end + 1;
  }
}

TEST(Prometheus, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(obs::prometheus_text(obs::RegistrySnapshot{}), "");
}

TEST(Trace, FlowEventsExportWithPhases) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    obs::Span span{"test.flowhost"};
    OBS_FLOW_BEGIN("test.flow", 42u);
    OBS_FLOW_STEP("test.flow", 42u);
    OBS_FLOW_END("test.flow", 42u);
  }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  // Binding point: the terminating flow event attaches to the enclosing
  // slice, so Perfetto draws the arrow into test.flowhost.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  obs::clear_trace();
}

TEST(Trace, ExportCarriesRingMetadata) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  { obs::Span span{"test.meta"}; }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"emoleakMeta\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ringCapacity\":"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":"), std::string::npos);

  const std::vector<obs::TraceRingInfo> rings = obs::trace_ring_info();
  ASSERT_FALSE(rings.empty());
  std::uint64_t recorded = 0;
  for (const obs::TraceRingInfo& info : rings) recorded += info.recorded;
  EXPECT_GE(recorded, 1u);
  obs::clear_trace();
}

TEST(Trace, DisabledFlowRecordsNothing) {
  obs::set_trace_enabled(false);
  obs::clear_trace();
  const std::uint64_t before = obs::detail::thread_ring().head();
  OBS_FLOW_BEGIN("test.floff", 7u);
  OBS_FLOW_END("test.floff", 7u);
  EXPECT_EQ(obs::detail::thread_ring().head(), before);
}

TEST(Obs, PoolQueueDepthGaugeReturnsToZero) {
  std::atomic<std::uint64_t> sum{0};
  util::parallel_for(util::Parallelism{.threads = 2}, 64, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64u * 63u / 2);
  EXPECT_EQ(obs::Registry::instance().gauge("pool.queue_depth").value(), 0);
  EXPECT_GT(obs::Registry::instance().counter("pool.tasks").value(), 0u);
}

}  // namespace
