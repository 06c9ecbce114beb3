// Session table for the serving layer.
//
// One core::StreamingAttack per device/stream id, with a bounded total
// and idle eviction measured in drain ticks (a logical clock — wall
// time would make eviction scheduling-dependent and untestable).
// Evicted sessions park in a free pool and are recycled via
// StreamingAttack::reset(), so steady-state serving allocates nothing
// per new stream.
//
// Concurrency contract: acquire() may be called from any shard task
// (the table mutex covers lookup/creation), but a given Session object
// is only ever touched by the shard that owns its stream id while a
// drain is running — the batcher's sharding provides that exclusivity,
// not this class. evict_idle() must be called outside any drain
// (ServeService does so from the single drain() caller).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/streaming.h"
#include "serve/counters.h"
#include "serve/model_registry.h"
#include "util/error.h"

namespace emoleak::serve {

struct SessionConfig {
  core::StreamingConfig stream;     ///< detector knobs for every session
  double sample_rate_hz = 420.0;    ///< accelerometer rate of the fleet
  std::size_t max_sessions = 64;    ///< hard cap on live sessions
  /// Sessions untouched for this many drain ticks are evicted (their
  /// open region is flushed into the outbox first); 0 disables idle
  /// eviction — sessions then live until explicitly finished.
  std::uint64_t idle_timeout_ticks = 0;

  void validate() const;
};

class SessionManager {
 public:
  struct Session {
    std::uint64_t stream_id = 0;
    core::StreamingAttack attack;
    /// Events awaiting pickup, in emission order (per-stream order is
    /// the determinism contract; only the owning shard appends).
    std::vector<core::EmotionEvent> outbox;
    std::uint64_t last_active_tick = 0;
    std::uint64_t model_generation = 0;
    /// Registry name this stream is bound to (empty = default). Set by
    /// a StreamStart request; re-resolved lazily on generation bumps so
    /// a hot-swapped model under the same name takes effect.
    std::string model_name;
    /// Per-task counter bundle, cached at bind time so the shard's hot
    /// path bumps lock-free. nullptr = not yet bound (the service binds
    /// on the first processed request).
    ServeCounters::TaskCounters* task = nullptr;
    /// Regions whose classification was deferred to the drain tick's
    /// batch step (ServeService::drain). `slot` here is the event's
    /// index in `outbox`; the model is the classifier captured
    /// when the region closed, so a mid-tick rebind cannot change which
    /// model scores it. Always emptied before the drain returns.
    std::vector<core::PendingWindow> pending;

    Session(const SessionConfig& config, ModelRegistry::ModelPtr model);
  };

  /// `counters` receives the table's metrics (serve.sessions.* and
  /// serve.windows_solo) and must outlive the manager.
  SessionManager(SessionConfig config, std::shared_ptr<ModelRegistry> registry,
                 ServeCounters& counters);

  /// The session for `stream_id`, creating (or recycling) one if the
  /// cap allows; nullptr when the table is full. The returned pointer
  /// stays valid until the session is evicted or finished — safe here
  /// because eviction never runs concurrently with shard processing.
  [[nodiscard]] Session* acquire(std::uint64_t stream_id, std::uint64_t tick);

  /// Flushes the open region (if any) into the outbox and retires the
  /// session into the free pool. Returns false for an unknown stream.
  /// `flow`/`arrival_ns` stamp the flushed final event with the finish
  /// request's telemetry riders (0 = unstamped; see EmotionEvent).
  bool finish(std::uint64_t stream_id, std::uint64_t flow = 0,
              std::uint64_t arrival_ns = 0);

  /// Evicts every session idle since before `tick - idle_timeout`;
  /// returns the number evicted. Call only between drains.
  std::size_t evict_idle(std::uint64_t tick);

  /// Moves every queued event out of the session outboxes, ordered by
  /// (stream id, emission order). Call only between drains.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, core::EmotionEvent>>
  take_events();

  /// One deferred window plus the session whose outbox it patches.
  struct PendingEntry {
    Session* session = nullptr;
    core::PendingWindow window;
  };

  /// Moves every session's deferred windows out for the batch-classify
  /// step, sorted by (stream id, outbox slot) so batch assembly is
  /// independent of shard scheduling and thread count. Call only from
  /// the drain cycle (no shard task may be running).
  [[nodiscard]] std::vector<PendingEntry> take_pending();

 private:
  void retire(std::unique_ptr<Session> session);
  /// Classifies any still-deferred windows inline (bit-identical to the
  /// batch step) so a retiring session's outbox never ships an
  /// unresolved event; each counts in serve.windows_solo. Caller holds
  /// mutex_.
  void resolve_pending_solo(Session& session);

  SessionConfig config_;
  std::shared_ptr<ModelRegistry> registry_;

  ServeCounters& counters_;

  mutable std::mutex mutex_;  ///< guards the table + pool
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Session>> free_pool_;
  /// Events from finished/evicted sessions awaiting take_events().
  std::vector<std::pair<std::uint64_t, core::EmotionEvent>> orphaned_events_;
};

}  // namespace emoleak::serve
