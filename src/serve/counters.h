// Service counters for emoleak::serve.
//
// Backed by an obs::Registry owned by the service: producers bump
// lock-free counters from any thread, and latencies go into
// log-bucketed obs::Histograms — full-history quantiles at ≤12.5%
// relative error, with a wait-free record path. The registry is the
// service's only telemetry surface: kMetricsRequest scrapes it, and
// in-process callers read ServeService::metrics_snapshot().
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace emoleak::serve {

class ServeCounters {
  // Declared before the public references: member init order is
  // declaration order, and every reference below binds into this
  // registry, so it must be constructed first.
  obs::Registry registry_;

 public:
  ServeCounters()
      : requests{registry_.counter("serve.requests")},
        accepted{registry_.counter("serve.accepted")},
        rejected_overload{registry_.counter("serve.rejected_overload")},
        rejected_capacity{registry_.counter("serve.rejected_capacity")},
        chunks_processed{registry_.counter("serve.chunks_processed")},
        samples_processed{registry_.counter("serve.samples_processed")},
        events_emitted{registry_.counter("serve.events_emitted")},
        drains{registry_.counter("serve.drains")},
        windows_batched{registry_.counter("serve.windows_batched")},
        sessions_created{registry_.counter("serve.sessions.created")},
        sessions_active{registry_.gauge("serve.sessions.active")},
        drain_latency_ns_{registry_.histogram("serve.drain_latency_ns")},
        e2e_latency_ns_{registry_.histogram("serve.e2e_latency_ns")},
        fifo_wait_ns_{registry_.histogram("serve.stage.fifo_wait_ns")},
        batch_size_{registry_.histogram("serve.batch_size")} {}

  obs::Counter& requests;
  obs::Counter& accepted;
  obs::Counter& rejected_overload;
  obs::Counter& rejected_capacity;
  obs::Counter& chunks_processed;
  obs::Counter& samples_processed;
  obs::Counter& events_emitted;
  obs::Counter& drains;
  obs::Counter& windows_batched;
  // Session-table lifecycle, bumped by ServeService under its
  // session-table mutex: created at admission, active = table size.
  obs::Counter& sessions_created;
  obs::Gauge& sessions_active;

  /// Records one batched predict call of `size` rows.
  void record_batch(std::size_t size) noexcept {
    windows_batched.add(size);
    batch_size_.record(size);
  }

  /// Records one drain-cycle wall time. Wait-free; the histogram keeps
  /// the full history, so quantiles cover every drain, not a window.
  void record_drain_latency(double microseconds) noexcept {
    const double ns = microseconds * 1000.0;
    drain_latency_ns_.record(
        ns > 0.0 ? static_cast<std::uint64_t>(ns) : std::uint64_t{0});
  }

  /// Records one event's end-to-end latency: chunk arrival at push()
  /// to the event leaving take_events(). Distinct from drain latency —
  /// this one includes queueing time in the shard FIFO and any ticks a
  /// deferred window waited for its batch.
  void record_e2e_latency(std::uint64_t ns) noexcept {
    e2e_latency_ns_.record(ns);
  }

  /// Records one request's wait in its shard FIFO: arrival at push()
  /// to the start of its processing in a drain. The first stage of a
  /// served window's latency budget.
  void record_fifo_wait(std::uint64_t ns) noexcept { fifo_wait_ns_.record(ns); }

  /// The service-local registry backing these counters; exposed so
  /// callers can render all serve metrics as text in one place.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// Lock-free per-task counters, named serve.task.<name>.* in the
  /// registry. References stay valid for the ServeCounters lifetime, so
  /// sessions cache the pointer at bind time and bump without locking.
  struct TaskCounters {
    obs::Counter& streams;
    obs::Counter& samples;
    obs::Counter& events;
    obs::Histogram& region_ns;  ///< per-region classification wall time
  };

  /// Returns this name's counter bundle, creating it on first use.
  /// Mutex only on the lookup (the bind path), never on the bump path.
  [[nodiscard]] TaskCounters& task(const std::string& name) {
    std::lock_guard<std::mutex> lock{tasks_mutex_};
    auto it = tasks_.find(name);
    if (it == tasks_.end()) {
      const std::string prefix = "serve.task." + name + ".";
      auto bundle = std::make_unique<TaskCounters>(
          TaskCounters{registry_.counter(prefix + "streams"),
                       registry_.counter(prefix + "samples"),
                       registry_.counter(prefix + "events"),
                       registry_.histogram(prefix + "region_ns")});
      it = tasks_.emplace(name, std::move(bundle)).first;
    }
    return *it->second;
  }

 private:
  obs::Histogram& drain_latency_ns_;
  obs::Histogram& e2e_latency_ns_;
  obs::Histogram& fifo_wait_ns_;
  obs::Histogram& batch_size_;
  mutable std::mutex tasks_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TaskCounters>> tasks_;
};

}  // namespace emoleak::serve
