// ServeService — the multi-session inference front end.
//
// The deployed shape of the paper's attack (§III-A): exfiltrated
// accelerometer streams from many devices are classified centrally
// against pre-trained models. ServeService wires the pieces together:
//
//   push/finish  -> admission, under one mutex: the session table
//                   (one Session per admitted stream, at most
//                   max_sessions, else Status::kNoCapacity), then the
//                   stream's shard FIFO (queue_capacity requests held
//                   => Status::kOverloaded)
//   drain        -> snapshots every shard FIFO under that mutex; the
//                   busy shards fan out over util::ThreadPool, each
//                   feeding its streams' StreamingAttack sequentially,
//                   so per-stream event sequences are bit-identical to
//                   a standalone StreamingAttack at any thread count
//   ModelRegistry   versioned models, atomic hot-swap (add/activate in
//                   process); sessions pick up a swap lazily at their
//                   next processed request
//   counters     -> serve.* metrics in a service-owned obs::Registry,
//                   the one telemetry surface (metrics_snapshot() in
//                   process, kMetricsRequest over the wire)
//
// The wire face (handle / poll_events) speaks serve/protocol.h frames;
// tests and serve_demo use it as an in-process transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "serve/counters.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/parallel.h"

namespace emoleak::serve {

/// Back-off advertised in overload acks (AckMsg::retry_after_ms) and in
/// the transport's connection-cap reject. The transport drains at the
/// end of the wakeup that filled the queue and at least every backstop
/// tick, so a retry this much later finds queue room.
inline constexpr std::uint32_t kRetryAfterMs = 1;

struct SessionConfig {
  core::StreamingConfig stream;     ///< detector knobs for every session
  double sample_rate_hz = 420.0;    ///< accelerometer rate of the fleet
  std::size_t max_sessions = 64;    ///< hard cap on admitted sessions

  void validate() const;
};

struct BatcherConfig {
  std::size_t shard_count = 8;
  std::size_t queue_capacity = 256;  ///< per shard, in requests

  void validate() const;
};

/// The shard that owns `stream_id`: all of a stream's requests share
/// one FIFO, so they are processed in admission order. splitmix64
/// finalizer: cheap, well-mixed, stable across runs.
[[nodiscard]] inline std::size_t shard_of(std::uint64_t stream_id,
                                          std::size_t shard_count) noexcept {
  std::uint64_t x = stream_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shard_count);
}

/// One admitted stream's state. A session lives from the admission of
/// the push or start that opened it to the end of the drain that
/// processes its finish. While shards run, only the shard that owns its
/// stream id touches it (through PushRequest::session); after the
/// shard barrier the drain's release walk does. Admission touches only
/// `closed`, under the session-table mutex.
struct Session {
  explicit Session(const SessionConfig& config)
      : attack{config.stream, config.sample_rate_hz, nullptr} {}
  // Queued requests hold its address.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  core::StreamingAttack attack;
  /// Events emitted in the running drain, in emission order; moved out
  /// for take_events() when the drain ends.
  std::vector<core::EmotionEvent> outbox;
  /// Regions whose classification waits for the drain's batch step.
  /// `slot` is the event's index in `outbox`; the model is the one
  /// captured when the region closed, so a mid-drain rebind cannot
  /// change which model scores it.
  std::vector<core::PendingWindow> pending;
  /// Registry name this stream is bound to (empty = default). Set by a
  /// StreamStart request; re-resolved lazily on generation bumps so a
  /// hot-swapped model under the same name takes effect.
  std::string model_name;
  std::uint64_t model_generation = 0;
  /// Per-task counter bundle, cached at bind time so the shard's hot
  /// path bumps lock-free. nullptr = not yet bound: the session binds
  /// on its first processed request.
  ServeCounters::TaskCounters* task = nullptr;
  bool closed = false;    ///< its finish was admitted (admission side)
  bool finished = false;  ///< its finish was processed (shard side)
};

/// One unit of work: a chunk of samples for a stream, an end-of-stream
/// flush (`finish` set, `samples` empty), or a stream-open binding the
/// stream to a named model (`start` set). Starts travel through the
/// same per-stream FIFO as chunks, so a start is always applied before
/// the chunks submitted after it — the ordering the mixed-task
/// determinism contract rests on.
struct PushRequest {
  std::uint64_t stream_id = 0;
  std::vector<double> samples;
  bool finish = false;
  bool start = false;
  std::string model_name;  ///< for `start`: empty = registry default
  /// The stream's session, set at admission: the one it opened or
  /// found open, or nullptr for a finish of a stream with no open
  /// session. The shard reaches it through this pointer without a
  /// table lookup or a lock.
  Session* session = nullptr;
  /// Telemetry riders (never touch classification): `flow` is the
  /// causal-trace id minted at admission and inherited by the events
  /// this request closes; `arrival_ns` is the obs::trace_now_ns()
  /// arrival stamp feeding the serve.e2e_latency_ns histogram. 0 = not
  /// stamped (starts).
  std::uint64_t flow = 0;
  std::uint64_t arrival_ns = 0;
};

struct ServeConfig {
  SessionConfig session;
  BatcherConfig batcher;
  /// Thread budget for drain cycles (0 = all cores, 1 = serial).
  util::Parallelism parallelism;
  void validate() const;
};

/// Outcome of feeding a byte range through the wire face. `reply`
/// holds the response frames for every frame decoded; `consumed` is the
/// bytes of whole frames processed (a partial trailing frame is left
/// for the transport to retain and retry — see FrameReader). A corrupt
/// frame does not abort the batch: replies already produced for earlier
/// valid frames survive, the offender is answered with a kError ack,
/// `corrupt` is set, and the transport should close that connection
/// after flushing.
struct HandleResult {
  std::string reply;
  std::size_t consumed = 0;
  std::size_t frames = 0;      ///< complete frames decoded
  std::size_t overloaded = 0;  ///< frames answered with kOverloaded
  bool corrupt = false;        ///< a corrupt frame ended the batch
  /// Stream ids named by push/start/finish frames in this batch, in
  /// frame order (duplicates possible). The transport uses these for
  /// connection -> stream affinity: events route back to the last
  /// connection that wrote the stream.
  std::vector<std::uint64_t> streams_touched;
  /// Indices into streams_touched of the finish frames that were
  /// admitted, ascending. A stream whose last touch is one of these has
  /// ended once the next drain has run.
  std::vector<std::size_t> finishes_admitted;
};

class ServeService {
 public:
  ServeService(ServeConfig config, std::shared_ptr<ModelRegistry> registry);

  // ---- typed API -----------------------------------------------------
  /// Enqueues a chunk for `stream_id`. kNoCapacity when the chunk would
  /// open a new session while max_sessions streams are admitted and not
  /// yet released (a finished stream holds its slot until the drain
  /// that processes its finish ends); nothing was enqueued, retry after
  /// a drain. Otherwise kOverloaded when the stream's shard already
  /// holds queue_capacity requests — the caller should drain (or back
  /// off) and retry; nothing was enqueued. kError, also with nothing
  /// enqueued, when a sample is NaN or infinite.
  Status push(std::uint64_t stream_id, std::vector<double> samples);

  /// Enqueues an end-of-stream flush (emits the final open region, if
  /// any, and frees the session's slot).
  Status finish_stream(std::uint64_t stream_id);

  /// Opens (or rebinds) a stream against a named registry model; empty
  /// name = the registry default. kError when the name is unknown —
  /// checked before enqueueing, so a bad name never consumes queue
  /// room. kNoCapacity as for push(). The start travels through the
  /// stream's shard FIFO, so it is applied before any chunk submitted
  /// after it (mixed-task determinism). Optional for default-task
  /// streams: a bare push with a fresh stream id still auto-binds to
  /// the default model.
  Status start_stream(std::uint64_t stream_id, std::string model_name);

  /// Runs one batch cycle: processes every queued request (per-stream
  /// sequential, streams parallel), frees the sessions whose finish it
  /// processed and batch-classifies the deferred windows. Returns
  /// requests processed. Thread-safe; concurrent callers are
  /// serialized.
  std::size_t drain();

  /// Events completed since the last call, ordered by (stream id,
  /// emission order).
  [[nodiscard]] std::vector<EventMsg> take_events();

  // ---- wire API --------------------------------------------------------
  /// Decodes each complete frame in `bytes`, applies it, and returns
  /// the reply frames (Ack per push/start/finish, MetricsReply or
  /// TraceReply per telemetry request) plus framing metadata. Never
  /// throws on bad input: a corrupt frame yields a kError ack and stops
  /// the batch with `corrupt` set, preserving the replies of earlier
  /// valid frames; a partial trailing frame is simply not consumed. This is the entry
  /// point the TCP transport (net::NetServer) feeds connection buffers
  /// through.
  [[nodiscard]] HandleResult handle_frames(std::string_view bytes);

  /// In-process transport: handle_frames over a whole buffer. A partial
  /// trailing frame — impossible when the caller hands over complete
  /// buffers — is answered with a kError ack like any corrupt frame.
  [[nodiscard]] std::string handle(std::string_view bytes);

  /// take_events() as encoded Event frames.
  [[nodiscard]] std::string poll_events();

  /// The registry behind this service's metrics — serve.* counters and
  /// histograms, plus whatever the transport (net.*) registers into it.
  /// kMetricsRequest serves a snapshot of this merged with the
  /// process-wide obs::Registry::instance() (kernel/cache/pool tallies).
  [[nodiscard]] obs::Registry& metrics_registry() noexcept {
    return counters_.registry();
  }

  /// The snapshot a kMetricsRequest answers: this service's registry
  /// merged with the process-wide one (service names win collisions).
  [[nodiscard]] obs::RegistrySnapshot metrics_snapshot() const;

 private:
  /// A session's place in the table: (stream id, admission order). Map
  /// order lists a stream's finished sessions before the one restarted
  /// under its id, which is the order take_events() promises.
  using SessionKey = std::pair<std::uint64_t, std::uint64_t>;

  /// The one admission path behind push/finish_stream/start_stream:
  /// stamps push and finish requests with an arrival time and a flow id
  /// (starts carry neither), refuses a push or start that would open a
  /// session at max_sessions (kNoCapacity) and then any request whose
  /// shard is full (kOverloaded), creates the stream's session when the
  /// request opens one, closes it when a finish is admitted, appends to
  /// the stream's shard, and counts serve.accepted,
  /// serve.rejected_capacity or serve.rejected_overload.
  Status admit(PushRequest request);
  void process(PushRequest& request);
  /// One deferred window and the ready_ event it patches.
  struct PendingEntry {
    core::EmotionEvent* event = nullptr;
    core::PendingWindow window;
  };
  /// One walk of the table after the shard barrier: moves every
  /// session's outbox to ready_ and its deferred windows to the result,
  /// and frees the sessions whose finish this drain processed. The
  /// windows come in table order — by stream id, a finished session
  /// before one restarted under its id, each session's in slot order —
  /// independent of shard scheduling and thread count.
  std::vector<PendingEntry> release_sessions();
  /// Batch-classifies the deferred windows: groups by (captured model,
  /// input width), one predict_proba_batch per group, results scattered
  /// back to the ready events.
  void run_batched_classify(const std::vector<PendingEntry>& pending);
  /// (Re)binds a session to its model_name: resolves the registry,
  /// swings the classifier + feature route, caches the per-task counter
  /// bundle, and counts a stream for the task the session landed on.
  void bind_session(Session& session);

  ServeConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  ServeCounters counters_;
  std::mutex drain_mutex_;  ///< one drain cycle at a time; guards ready_
  /// Guards the session table's structure, every Session::closed and
  /// the shard FIFOs. The typed API may be called from several producer
  /// threads; the TCP transport admits from its loop thread only, so
  /// there the lock is uncontended. One acquisition admits a request:
  /// the table changes in the order the shard FIFOs see the requests.
  std::mutex sessions_mutex_;
  /// Admitted requests awaiting a drain, one FIFO per shard (see
  /// shard_of), each holding at most queue_capacity requests.
  std::vector<std::vector<PushRequest>> shards_;
  /// Every admitted, unreleased session: its size is
  /// serve.sessions.active, and admission keeps it <= max_sessions.
  /// Map nodes never move, so a queued request's Session pointer stays
  /// valid until the drain that frees the session.
  std::map<SessionKey, Session> sessions_;
  std::uint64_t sessions_opened_ = 0;  ///< admission order of the next key
  /// Events of finished drains awaiting take_events(), per session.
  std::map<SessionKey, std::vector<core::EmotionEvent>> ready_;
  /// Flow-id mint for causal tracing: each admitted push/finish
  /// gets a unique nonzero id, and the events its windows produce
  /// inherit it — linking one request's spans across the event-loop
  /// thread, pool workers, and the drain in the exported trace.
  std::atomic<std::uint64_t> flow_seq_{0};
};

}  // namespace emoleak::serve
