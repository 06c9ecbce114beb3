// Session table for the serving layer.
//
// One core::StreamingAttack per device/stream id, with a bounded total.
// A session lives from the first request of its stream until the end
// of the drain that processes its finish: finish() takes it out of the
// table at once (freeing its slot) and flushes its open region as one
// more deferred window, the drain's batch step classifies that window
// with the rest, and release_finished() hands the session's events to
// take_events() and frees it. Every new stream constructs a fresh
// StreamingAttack.
//
// Concurrency contract: acquire() and finish() may be called from any
// shard task (the table mutex covers lookup, creation and removal), but
// a given Session object is only ever touched by the shard that owns
// its stream id while a drain is running — the batcher's sharding
// provides that exclusivity, not this class. take_pending(),
// release_finished() and take_events() run between shard barriers
// (ServeService does so from the single drain() caller).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
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
  std::size_t max_sessions = 64;    ///< hard cap on admitted sessions

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
    std::uint64_t model_generation = 0;
    /// Registry name this stream is bound to (empty = default). Set by
    /// a StreamStart request; re-resolved lazily on generation bumps so
    /// a hot-swapped model under the same name takes effect.
    std::string model_name;
    /// Per-task counter bundle, cached at bind time so the shard's hot
    /// path bumps lock-free. nullptr = not yet bound (the service binds
    /// on the first processed request).
    ServeCounters::TaskCounters* task = nullptr;
    /// Regions whose classification was deferred to the drain's batch
    /// step (ServeService::drain). `slot` here is the event's index in
    /// `outbox`; the model is the classifier captured when the region
    /// closed, so a mid-drain rebind cannot change which model scores
    /// it. Always emptied before the drain returns.
    std::vector<core::PendingWindow> pending;

    Session(const SessionConfig& config, ModelRegistry::ModelPtr model);

    /// Appends the events one attack.push() or attack.finish() just
    /// returned, stamped with the closing request's telemetry riders
    /// (see EmotionEvent), and rebases that call's deferred windows
    /// from its event slots onto the outbox.
    void append(std::span<core::EmotionEvent> events, std::uint64_t flow,
                std::uint64_t arrival_ns);
  };

  /// `counters` receives the table's metrics (serve.sessions.*) and
  /// must outlive the manager.
  SessionManager(SessionConfig config, std::shared_ptr<ModelRegistry> registry,
                 ServeCounters& counters);

  /// The session for `stream_id`, creating one if there is none. The
  /// table is not capped here: ServeService admits a new stream only
  /// while its admitted, unreleased streams number fewer than
  /// max_sessions, so every acquire fits. The returned reference stays
  /// valid until the end of the drain that finishes the stream.
  [[nodiscard]] Session& acquire(std::uint64_t stream_id);

  /// Takes the session out of the table and flushes its open region
  /// (if any) into the outbox as a deferred window, stamped with the
  /// finish request's `flow`/`arrival_ns` (0 = unstamped). The session
  /// stays alive for take_pending() until release_finished(). Returns
  /// false for an unknown stream.
  bool finish(std::uint64_t stream_id, std::uint64_t flow = 0,
              std::uint64_t arrival_ns = 0);

  /// One deferred window plus the session whose outbox it patches.
  struct PendingEntry {
    Session* session = nullptr;
    core::PendingWindow window;
  };

  /// Moves the deferred windows of every live and finished session out
  /// for the batch-classify step, in an order independent of shard
  /// scheduling and thread count: by stream id, a finished session's
  /// windows before those of a live session restarted under the same
  /// id, each session's in outbox-slot order. Call only from the drain
  /// cycle (no shard task may be running).
  [[nodiscard]] std::vector<PendingEntry> take_pending();

  /// Moves the finished sessions' events aside for take_events() and
  /// frees the sessions. Call after the batch step. Returns the stream
  /// id of each session freed, one entry per session.
  std::vector<std::uint64_t> release_finished();

  /// Moves every queued event out, ordered by (stream id, emission
  /// order); a finished session's events come before those of a stream
  /// restarted under its id. Call only between drains.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, core::EmotionEvent>>
  take_events();

 private:
  SessionConfig config_;
  std::shared_ptr<ModelRegistry> registry_;

  ServeCounters& counters_;

  mutable std::mutex mutex_;  ///< guards the table and the lists below
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  /// Sessions finished this drain, in finish order; freed by
  /// release_finished().
  std::vector<std::unique_ptr<Session>> finished_;
  /// Events of released sessions awaiting take_events().
  std::vector<std::pair<std::uint64_t, core::EmotionEvent>> orphaned_events_;
};

}  // namespace emoleak::serve
